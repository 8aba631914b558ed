"""repro.service — the sweep service: a multi-client async job server.

``repro serve`` promotes :func:`repro.core.runner.run_sweep` from a
library call into a long-running daemon.  Many concurrent clients submit
sweep jobs over a local unix socket; the server

* **dedups fleet-wide** — one in-flight simulation per config digest
  (engine-tagged, under the current model fingerprint); every subscriber
  — in the same job or another client's — shares the result, and the
  content-addressed :class:`~repro.core.cache.ResultCache` serves warm
  rows without any dispatch at all;
* **scores and shards** — analytic-engine rows are scored inline on
  the loop, one config per call, event-engine rows fan out over a
  process pool;
* **streams** — each client receives per-row results the moment they
  complete, tagged with the submission index so the final
  :class:`~repro.core.runner.SweepResult` is bit-identical to a direct
  ``run_sweep``;
* **survives** — jobs are journaled in a ledger next to the cache;
  SIGTERM drains in-flight jobs and a restarted server resumes the
  queued ones, while configs that keep failing are quarantined per job
  name and engine by the failure strikes in the cache's log
  (:mod:`repro.core.journal`).

Layers: :mod:`.protocol` (wire frames), :mod:`.jobs` (specs, state
machine, ledger), :mod:`.fairshare` (weighted fair-share run-slot
queue), :mod:`repro.core.scheduler` (dedup/shard execution,
shared with parallel library sweeps),
:mod:`.server` (the asyncio daemon), :mod:`.client` (blocking SDK).
"""

from __future__ import annotations

from repro.service.client import ServiceClient, default_socket_path
from repro.service.fairshare import FairShareQueue
from repro.service.jobs import JobLedger, JobRecord, JobSpec
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.server import ServiceThread, SweepService, serve_in_thread

__all__ = [
    "FairShareQueue",
    "JobLedger",
    "JobRecord",
    "JobSpec",
    "PROTOCOL_VERSION",
    "ServiceClient",
    "ServiceThread",
    "SweepService",
    "default_socket_path",
    "serve_in_thread",
]
