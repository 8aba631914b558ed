"""Run manifests: the self-describing job spec of every recorded run.

A manifest pins everything needed to re-execute a run and to audit the
numbers it produced: the config snapshots, the model fingerprint the
result cache keys on, the engine and worker count, the fault-plan
(verbatim plus digest), package/python/git versions, and the resume
lineage.  ``repro reproduce`` consumes nothing but the manifest and the
recorded summary — if the two plus the current model agree, the run is
reproducible; if not, the drift is named.

A manifest is stored as ``manifest`` records of the run log
(:mod:`repro.telemetry.runlog`): every field but the :data:`CLOSING`
ones when the run opens, the fields that changed when it finalizes.
The log stores the configs once each, so the opening record lists
their :func:`~repro.core.cache.config_digest` values, and it stores the
:func:`session_fields` every run of a process shares once per log; its
reader puts both back.  :func:`check_manifest` applies the format and
field checks to the merged result and gives a run that never finalized
the closing fields of a running one.
"""

from __future__ import annotations

import platform
import subprocess
import sys
import time
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.experiment import ExperimentConfig
    from repro.faults.plan import FaultPlan

#: On-disk manifest format version.
MANIFEST_FORMAT = 1

#: The fields a run sets when it finalizes, as they read before.
CLOSING: dict[str, Any] = {
    "status": "running", "error": None, "finished": None,
    "wall_seconds": None, "n_rows": None, "n_errors": None, "errors": [],
}

_git_memo: dict[str, Any] | None = None
_git_loaded = False


def sweep_key(kind: str, name: str, digests: list[str],
              engine: str) -> str:
    """Content digest identifying "the same sweep, run again".

    Resume uses it to find the run a restarted sweep should re-enter:
    same kind, sweep name, ordered
    :func:`~repro.core.cache.config_digest` of the configs
    (``digests``), and engine.
    """
    from repro.core.cache import payload_digest

    return payload_digest(
        {"kind": kind, "name": name, "engine": engine, "configs": digests})


def git_info() -> dict[str, Any] | None:
    """Best-effort git provenance (commit + dirty flag), memoized.

    Returns ``None`` outside a repository or without a git binary — a
    manifest is still valid, just less traceable.
    """
    global _git_memo, _git_loaded
    if _git_loaded:
        return _git_memo
    _git_loaded = True
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, timeout=5, check=True,
        ).stdout.strip() != ""
    except (OSError, subprocess.SubprocessError):
        _git_memo = None
        return None
    _git_memo = {"commit": commit, "dirty": dirty}
    return _git_memo


def fault_plan_record(plan: "FaultPlan | None") -> dict[str, Any] | None:
    """Manifest entry for a fault plan: the verbatim plan plus its
    digest (``None`` for no plan / an empty plan)."""
    if plan is None or plan.empty:
        return None
    return {"digest": plan.digest(), "plan": plan.to_dict(),
            "seed": plan.seed}


def session_fields() -> dict[str, Any]:
    """The manifest fields every run of this process shares, as a run
    log's ``session`` record holds them."""
    import repro
    from repro.core.cache import model_fingerprint

    return {
        "repro_version": repro.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "argv": list(sys.argv),
        "git": git_info(),
        "model_fingerprint": model_fingerprint(),
    }


def build_manifest(*, run_id: str, kind: str, name: str,
                   configs: list["ExperimentConfig"], engine: str,
                   workers: int = 1, cache_dir: str | None = None,
                   advise: str | None = None,
                   fault_plan: "FaultPlan | None" = None,
                   reproduces: str | None = None,
                   digests: list[str] | None = None) -> dict[str, Any]:
    """Assemble a fresh manifest dict, without the :data:`CLOSING` or
    :func:`session_fields`; it names the configs by digest
    (``digests``, when the caller has them already)."""
    if digests is None:
        from repro.core.cache import config_digest

        digests = [config_digest(c) for c in configs]
    now = time.time()
    return {
        "format": MANIFEST_FORMAT,
        "run_id": run_id,
        "kind": kind,
        "name": name,
        # microsecond resolution so same-second runs still order
        # deterministically in `repro runs` / resume lookup
        "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime(now))
        + f".{int(now * 1e6) % 1_000_000:06d}",
        "sweep_key": sweep_key(kind, name, digests, engine),
        "engine": engine,
        "workers": workers,
        "resumed_from": None,
        "reproduces": reproduces,
        "cache_dir": cache_dir,
        "advise": advise,
        "fault_plan": fault_plan_record(fault_plan),
        "seeds": {"fault_plan": fault_plan.seed}
        if fault_plan is not None and not fault_plan.empty else {},
        "configs": digests,
    }


def check_manifest(manifest: Any, where: str) -> dict[str, Any]:
    """Sanity-check one run's manifest; ``where`` names it in errors.
    Returns it with the :data:`CLOSING` fields it lacks."""
    if not isinstance(manifest, dict):
        raise ConfigurationError(f"{where}: manifest is not a JSON object")
    fmt = manifest.get("format")
    if fmt != MANIFEST_FORMAT:
        raise ConfigurationError(
            f"{where}: manifest format {fmt!r} is not supported "
            f"(this build reads format {MANIFEST_FORMAT})"
        )
    for field in ("run_id", "kind", "name", "configs", "engine"):
        if field not in manifest:
            raise ConfigurationError(f"{where}: manifest missing {field!r}")
    missing = unresolved(manifest["configs"])
    if missing:
        raise ConfigurationError(
            f"{where}: manifest config {missing} is not in the run log")
    return {**CLOSING, **manifest}


def unresolved(configs: Any) -> str | None:
    """The first config digest the reader left in ``configs`` because
    no ``config`` record held it, or ``None``."""
    if isinstance(configs, list):
        for config in configs:
            if isinstance(config, str):
                return config
    return None


def manifest_configs(manifest: dict[str, Any]) -> list["ExperimentConfig"]:
    """Rebuild the config objects a manifest snapshot describes."""
    from repro.core.persistence import config_from_dict

    return [config_from_dict(d) for d in manifest["configs"]]
