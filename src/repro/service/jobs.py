"""Job specs, the job state machine, and the crash-durable job ledger.

A **job** is one client-submitted sweep: an ordered config list plus an
engine, executed once and streamed back per-row.  Its lifecycle is a
small explicit state machine::

    queued ──> running ──> completed
       │          ├──────> failed        (engine-level, e.g. auto
       │          │                       cross-validation disagreement)
       │          └──────> cancelled
       └────────────────-> cancelled     (cancelled before it started)

Terminal states never transition again; illegal transitions raise
:class:`~repro.errors.ServiceError` rather than silently corrupting the
record.

The **ledger** (``service-jobs.jsonl`` beside the persistent result
cache, a :mod:`repro.jsonlog` log) makes jobs survive the server
process: every submit appends the full spec, every state change appends
a transition.  A restarted server replays the ledger and re-enqueues every
job whose last recorded state is non-terminal — completed rows then come
straight from the content-addressed cache, so a resume costs only the
configs that never finished.
"""

from __future__ import annotations

import itertools
import math
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro import jsonlog, telemetry
from repro.core.experiment import ExperimentConfig
from repro.core.persistence import config_from_dict, config_to_dict
from repro.errors import ConfigurationError, ProtocolError, ServiceError
from repro.names import ENGINES, PRIORITIES

#: On-disk ledger record format version.
LEDGER_FORMAT = 1

#: Job states (the ``state`` field of every record).
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"
EXPIRED = "expired"

STATES = (QUEUED, RUNNING, COMPLETED, FAILED, CANCELLED, EXPIRED)
TERMINAL_STATES = frozenset({COMPLETED, FAILED, CANCELLED, EXPIRED})

#: Legal state transitions.
_TRANSITIONS: dict[str, frozenset[str]] = {
    QUEUED: frozenset({RUNNING, CANCELLED, EXPIRED}),
    RUNNING: frozenset({COMPLETED, FAILED, CANCELLED, EXPIRED}),
    COMPLETED: frozenset(),
    FAILED: frozenset(),
    CANCELLED: frozenset(),
    EXPIRED: frozenset(),
}

#: Fair-share weight per priority (a ``high`` job accrues virtual time
#: 4x slower than a ``low`` one, so it is picked earlier — but every
#: queued client's virtual time eventually becomes minimal, so nothing
#: starves).
PRIORITY_WEIGHTS = {"low": 1.0, "normal": 2.0, "high": 4.0}

_job_counter = itertools.count(1)


def new_job_id() -> str:
    """Sortable, collision-resistant job id (time + counter + random)."""
    return (time.strftime("%Y%m%d-%H%M%S")
            + f"-{next(_job_counter):04d}-{uuid.uuid4().hex[:6]}")


@dataclass(frozen=True)
class JobSpec:
    """What a client asked for: the immutable half of a job.

    ``priority``/``deadline_s``/``client`` are the fleet-scheduling
    knobs added for fair-share: ``client`` is the submitter's identity
    (fair-share is computed across identities), ``deadline_s`` is a
    wall-clock budget measured from ``submitted_at`` after which the
    job expires instead of running.  The server assigns ``job_id`` and
    ``submitted_at`` when it accepts the job.

    :meth:`to_dict` / :meth:`from_dict` are the one spec codec of the
    wire and the ledger, so replay is exactly as strict as the wire.
    """

    name: str
    engine: str
    configs: tuple[ExperimentConfig, ...]
    priority: str = "normal"
    deadline_s: float | None = None
    client: str = ""
    job_id: str = ""
    submitted_at: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        """The spec's encoding; fields at their defaults are left out,
        so a pre-deadline spec encodes as the pre-deadline format."""
        record: dict[str, Any] = {
            "name": self.name,
            "engine": self.engine,
            "configs": [config_to_dict(c) for c in self.configs],
        }
        if self.job_id:
            record["job_id"] = self.job_id
        if self.priority != "normal":
            record["priority"] = self.priority
        if self.deadline_s is not None:
            record["deadline_s"] = float(self.deadline_s)
        if self.client:
            record["client"] = self.client
        if self.submitted_at:
            record["submitted_at"] = self.submitted_at
        return record

    @classmethod
    def from_dict(cls, record: dict[str, Any]) -> "JobSpec":
        """Decode an encoded spec, revalidating every config through the
        persistence loader; raises :class:`~repro.errors.ProtocolError`
        naming the first bad field."""
        name = record.get("name")
        if not isinstance(name, str) or not name:
            raise ProtocolError("submit needs a non-empty string 'name'")
        engine = record.get("engine", "event")
        if engine not in ENGINES:
            raise ProtocolError(
                f"unknown engine {engine!r} (expected one of {ENGINES})")
        priority = record.get("priority", "normal")
        if priority not in PRIORITIES:
            raise ProtocolError(
                f"unknown priority {priority!r} "
                f"(expected one of {PRIORITIES})")
        numbers: dict[str, float | None] = {}
        for key in ("deadline_s", "submitted_at"):
            raw = record.get(key)
            try:
                numbers[key] = None if raw is None else float(raw)
            except (TypeError, ValueError):
                raise ProtocolError(
                    f"{key} must be a number, got {raw!r}") from None
        deadline_s = numbers["deadline_s"]
        if deadline_s is not None and not math.isfinite(deadline_s):
            # NaN passes `<= 0` and never expires
            raise ProtocolError(
                f"deadline_s must be finite, got {deadline_s!r}")
        if deadline_s is not None and deadline_s <= 0:
            raise ProtocolError("deadline_s must be positive")
        items = record.get("configs")
        if not isinstance(items, list) or not items:
            raise ProtocolError("submit needs a non-empty 'configs' list")
        configs: list[ExperimentConfig] = []
        for i, item in enumerate(items):
            if not isinstance(item, dict):
                raise ProtocolError(f"configs[{i}] is not an object")
            try:
                configs.append(config_from_dict(item))
            except (ConfigurationError, TypeError) as exc:
                raise ProtocolError(f"configs[{i}]: {exc}") from None
        return cls(name=name, engine=str(engine), configs=tuple(configs),
                   priority=str(priority), deadline_s=deadline_s,
                   client=str(record.get("client", "")),
                   job_id=str(record.get("job_id", "")),
                   submitted_at=numbers["submitted_at"] or 0.0)


@dataclass
class JobRecord:
    """The live (server-side) half of a job: state, counts, events.

    ``events`` is the replayable stream a watcher consumes: ``row`` /
    ``row-error`` frames in completion order, closed by one ``done``
    frame.  Watchers that attach late replay from the start, so a
    reconnected client never misses rows.
    """

    spec: JobSpec
    state: str = QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    error: str = ""
    n_done: int = 0
    n_failed: int = 0
    n_quarantined: int = 0
    n_cache_hits: int = 0
    n_dedup_hits: int = 0
    n_executed: int = 0
    #: Replayable event frames (``row`` / ``row-error`` / ``done``).
    events: list[dict[str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        # A replayed spec carries its original submission time; adopt it
        # so deadlines survive a server restart.
        if self.spec.submitted_at:
            self.submitted_at = self.spec.submitted_at

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def n_configs(self) -> int:
        return len(self.spec.configs)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def priority(self) -> str:
        return self.spec.priority

    @property
    def deadline_at(self) -> float | None:
        """Absolute expiry time, or ``None`` for no deadline."""
        if self.spec.deadline_s is None:
            return None
        return self.submitted_at + self.spec.deadline_s

    def expired(self, now: float | None = None) -> bool:
        """True when a deadline exists and has passed (state unchanged)."""
        deadline = self.deadline_at
        if deadline is None:
            return False
        return (time.time() if now is None else now) >= deadline

    def transition(self, state: str, error: str = "") -> None:
        """Move to ``state``, enforcing the machine's legal edges."""
        if state not in STATES:
            raise ServiceError(f"unknown job state {state!r}")
        if state not in _TRANSITIONS[self.state]:
            raise ServiceError(
                f"job {self.job_id}: illegal transition "
                f"{self.state} -> {state}"
            )
        self.state = state
        if state == RUNNING:
            self.started_at = time.time()
        elif state in TERMINAL_STATES:
            self.finished_at = time.time()
        if error:
            self.error = error

    def note_row(self, source: str) -> None:
        """Account one completed row by provenance."""
        self.n_done += 1
        if source == "cache":
            self.n_cache_hits += 1
        elif source == "dedup":
            self.n_dedup_hits += 1
        else:
            self.n_executed += 1

    def to_dict(self) -> dict[str, Any]:
        """Wire/ledger snapshot (spec + mutable state, no events)."""
        return {
            "job_id": self.job_id,
            "name": self.spec.name,
            "engine": self.spec.engine,
            "state": self.state,
            "n_configs": self.n_configs,
            "n_done": self.n_done,
            "n_failed": self.n_failed,
            "n_quarantined": self.n_quarantined,
            "n_cache_hits": self.n_cache_hits,
            "n_dedup_hits": self.n_dedup_hits,
            "n_executed": self.n_executed,
            "error": self.error,
            "priority": self.priority,
            "deadline_s": self.spec.deadline_s,
            "client": self.spec.client,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }


class JobLedger:
    """Append-only JSONL record of job specs and state transitions.

    ``path=None`` (no persistent cache directory to live in) disables
    persistence: the ledger still answers queries from memory, jobs just
    do not survive the process.

    ``fault_hook`` is the chaos-harness seam of
    :func:`repro.jsonlog.append`, applied to every record line.

    ``replay()`` additionally exposes two tolerance counters —
    ``torn_lines`` and ``duplicate_transitions`` (a terminal transition
    recorded twice across a crash/restart boundary) — so operators can
    observe corruption that the replay survived.
    """

    __slots__ = ("path", "fault_hook", "last_append_at",
                 "torn_lines", "duplicate_transitions")

    FILENAME = "service-jobs.jsonl"

    def __init__(self, path: str | Path | None = None, *,
                 fault_hook: Callable[[bytes], bytes | None] | None = None,
                 ) -> None:
        self.path = Path(path) if path is not None else None
        self.fault_hook = fault_hook
        #: ``time.time()`` of the last successful append (0.0 = never);
        #: the health probe reports ``now - last_append_at`` as ledger
        #: lag.
        self.last_append_at = 0.0
        #: Corrupt lines tolerated by the last :meth:`replay`.
        self.torn_lines = 0
        #: Duplicate terminal transitions tolerated by the last
        #: :meth:`replay`.
        self.duplicate_transitions = 0

    @classmethod
    def for_cache(cls, cache: Any) -> "JobLedger":
        """The ledger living beside a persistent cache's JSONL file
        (memory-only for plain-dict caches)."""
        directory = getattr(cache, "directory", None)
        if directory is None:
            return cls(None)
        return cls(Path(directory) / cls.FILENAME)

    # ------------------------------------------------------------------
    def _append(self, record: dict[str, Any]) -> None:
        if self.path is None:
            return
        jsonlog.append(self.path, {"format": LEDGER_FORMAT, **record},
                       fault_hook=self.fault_hook)
        self.last_append_at = time.time()

    def record_submit(self, job: JobRecord) -> None:
        self._append({"event": "submitted", "job": job.spec.to_dict(),
                      "t": time.time()})

    def record_state(self, job: JobRecord) -> None:
        self._append({"event": "state", "job_id": job.job_id,
                      "state": job.state, "error": job.error,
                      "t": time.time()})

    # ------------------------------------------------------------------
    def replay(self) -> dict[str, tuple[JobSpec, str]]:
        """Rebuild ``job_id -> (spec, last recorded state)`` from disk.

        Torn and foreign lines are skipped as :mod:`repro.jsonlog`
        defines them, and so is a submit whose spec the wire would
        refuse or that has no job id (counted torn); a transition for
        an unknown job id (its submit line was lost) is ignored rather
        than fatal.  A terminal
        transition for an already-terminal job — the signature of a
        crash between the append and the ack, replayed on restart —
        keeps the *first* terminal state and bumps
        ``duplicate_transitions``.
        """
        state: dict[str, tuple[JobSpec, str]] = {}
        self.torn_lines = 0
        self.duplicate_transitions = 0
        if self.path is None:
            return state
        records, self.torn_lines = jsonlog.read(self.path, LEDGER_FORMAT)
        for record in records:
            event = record.get("event")
            if event == "submitted":
                job = record.get("job")
                try:
                    spec = JobSpec.from_dict(job) \
                        if isinstance(job, dict) else None
                except ProtocolError:
                    spec = None
                if spec is None or not spec.job_id:
                    self.torn_lines += 1
                    continue
                state[spec.job_id] = (spec, QUEUED)
            elif event == "state":
                job_id = record.get("job_id")
                new = record.get("state")
                known = state.get(str(job_id))
                if known is None or new not in STATES:
                    continue
                if known[1] in TERMINAL_STATES \
                        and str(new) in TERMINAL_STATES:
                    self.duplicate_transitions += 1
                    continue
                state[str(job_id)] = (known[0], str(new))
        if self.torn_lines:
            telemetry.count("ledger.torn_lines", self.torn_lines)
        return state

    def incomplete(self) -> list[JobSpec]:
        """Specs whose last recorded state is non-terminal, in ledger
        order — the restart queue."""
        return [spec for spec, last in self.replay().values()
                if last not in TERMINAL_STATES]

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<JobLedger {self.path}>"
