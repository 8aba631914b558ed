"""Batched analytic (closed-form) sweep engine.

``repro.analytic`` scores sweep configurations without discrete-event
simulation: rank programs are summarized into placement-independent
:class:`~repro.analytic.profile.AppProfile` objects (closed-form per-app
arithmetic, with symbolic replay as the fallback/oracle), and the scorer
applies the ECM roofline plus analytic communication terms to every
config of a batch from memo tables keyed by kernel set and by placement,
so a design grid pays for each placement once.  See DESIGN.md ("Engine
selection") for the model's assumptions and known divergences.
"""

from repro.analytic.engine import (
    AUTO_SAMPLE_SIZE,
    ELAPSED_RTOL,
    ENGINES,
    GFLOPS_RTOL,
    check_agreement,
    check_engine,
    clear_memos,
    cross_validate,
    score_config,
    score_configs,
    validation_sample,
)
from repro.analytic.profile import (
    AppProfile,
    CollectiveGroup,
    ComputeGroup,
    ExchangeGroup,
    RankClass,
    SummaryBuilder,
    profile_from_replay,
    profile_from_summaries,
)

__all__ = [
    "AUTO_SAMPLE_SIZE",
    "ELAPSED_RTOL",
    "ENGINES",
    "GFLOPS_RTOL",
    "AppProfile",
    "CollectiveGroup",
    "ComputeGroup",
    "ExchangeGroup",
    "RankClass",
    "SummaryBuilder",
    "check_agreement",
    "check_engine",
    "clear_memos",
    "cross_validate",
    "profile_from_replay",
    "profile_from_summaries",
    "score_config",
    "score_configs",
    "validation_sample",
]
