"""Crash-consistency chaos campaign for the sweep service.

``repro chaos --service`` drives a real :class:`~repro.service.server
.SweepService` (in-thread, own socket, own cache directory per
scenario) through the failure modes a fleet job server actually meets,
and asserts one invariant above all others: **no accepted job is ever
lost or duplicated across crash and restart**.  "Accepted" is precise —
the server acked the submission; the write-before-ack ledger ordering
means a crash *before* the ack may lose the request (the client sees an
error and retries), but a crash *after* it may not.

Scenario ladder (each on a fresh server + cache):

* ``torn-submit`` — the ledger append for one submission is torn
  mid-multibyte-UTF-8 and the process "dies" before acking; after
  restart the torn line costs a counter, earlier accepted jobs
  complete, and the unacked job is (correctly) gone.
* ``kill-at-running`` — SIGKILL at the journaled ``queued -> running``
  transition; the restarted server resumes the job and it completes.
* ``duplicate-terminal`` — a terminal transition is replayed twice
  (crash between append and ack, client retried); restart tolerates it
  as a counter and does not re-run the job.
* ``torn-frame`` — a request frame truncated mid-UTF-8 sequence gets a
  typed protocol error, the connection survives, no job is admitted.
* ``hung-worker`` — an execution hangs; the progress watchdog kills
  and retries it and the job still completes.
* ``expired-deadline`` — a queued job's deadline lapses behind a busy
  slot; it reaches ``expired`` (exactly once) and stays expired after
  restart.

Every crash-stop leaves the socket file behind (like real SIGKILL), so
each restart also exercises the stale-socket connect-probe reclaim.

Determinism is the same contract as :mod:`repro.faults.chaos`: the
campaign keys its artifact on job *names* (never ids or timestamps),
runs the whole ladder twice, and asserts the two JSON payloads are
bit-identical — CI diffs two full CLI runs of the same seed on top.
"""

from __future__ import annotations

import json
import socket as socket_module
import time
from pathlib import Path
from typing import Any, Callable

from repro.core.experiment import ExperimentConfig
from repro.core.parallel import RetryPolicy, simulate_config
from repro.errors import ServiceError, ServiceUnavailable
from repro.faults.chaos import CampaignReport, Invariant
from repro.service.client import ServiceClient
from repro.service.jobs import TERMINAL_STATES, JobLedger
from repro.service.server import ServiceThread, SweepService


class SimulatedKill(BaseException):
    """The chaos harness's SIGKILL: raised from a ledger fault hook.

    Derives from :class:`BaseException` deliberately — real SIGKILL
    does not run ``except Exception`` cleanup handlers, so neither does
    its simulation.  Code under test must never catch it.
    """


class ServiceChaosReport(CampaignReport):
    """The ``--service`` campaign artifact (bit-reproducible JSON)."""

    def to_json(self) -> dict[str, Any]:
        return {**super().to_json(), "kind": "service-chaos"}

    def render(self) -> str:
        return self._render(f"service chaos campaign: seed={self.seed}",
                            "scenarios", lambda inv: inv.scenario)


def _configs(n: int = 2) -> list[ExperimentConfig]:
    """Small, fast event-engine configs (mirrors the service tests)."""
    pairs = [(1, 2), (2, 2), (4, 2)]
    return [ExperimentConfig(app="ffvc", n_ranks=r, n_threads=t)
            for r, t in pairs[:n]]


def _wait_terminal(client: ServiceClient, timeout_s: float = 60.0) -> bool:
    """Poll until every job the server lists is terminal."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        jobs = client.jobs()
        if jobs and all(j.get("state") in TERMINAL_STATES for j in jobs):
            return True
        if not jobs:
            return True
        time.sleep(0.02)
    return False


def _wait_flag(flag: dict[str, bool], key: str,
               timeout_s: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if flag.get(key):
            return True
        time.sleep(0.01)
    return False


def _ledger_by_name(cache_dir: Path) -> dict[str, list[str]]:
    """Replay the ledger into ``job name -> [terminal-or-last state per
    accepted id]`` (names are the determinism-stable key)."""
    ledger = JobLedger(cache_dir / JobLedger.FILENAME)
    by_name: dict[str, list[str]] = {}
    for spec, state in ledger.replay().values():
        by_name.setdefault(spec.name, []).append(state)
    return by_name


class _Harness:
    """One scenario's server lifecycle + invariant recording."""

    def __init__(self, report: ServiceChaosReport, scenario: str,
                 root: Path) -> None:
        self.report = report
        self.scenario = scenario
        self.root = root
        self.cache_dir = root / "cache"
        self.socket_path = root / "svc.sock"
        self.thread: ServiceThread | None = None

    def check(self, inv_id: str, ok: bool, detail: str = "") -> None:
        self.report.invariants.append(Invariant(
            id=inv_id, app="service", scenario=self.scenario, ok=ok,
            detail=detail))

    def start(self, **kwargs: Any) -> SweepService:
        from repro.core.cache import ResultCache

        service = SweepService(self.socket_path,
                               cache=ResultCache(self.cache_dir),
                               workers=1, **kwargs)
        self.thread = ServiceThread(service).start()
        return service

    def client(self, **kwargs: Any) -> ServiceClient:
        kwargs.setdefault("timeout_s", 60.0)
        kwargs.setdefault("jitter_seed", self.report.seed)
        return ServiceClient(self.socket_path, **kwargs)

    def crash(self) -> None:
        """SIGKILL stand-in: abort without drain, socket left behind."""
        if self.thread is not None:
            self.thread.abort()
            self.thread = None

    def stop(self) -> None:
        if self.thread is not None:
            self.thread.stop()
            self.thread = None

    def restart_after_crash(self, **kwargs: Any) -> SweepService:
        """Restart over the leftover socket (stale-socket reclaim)."""
        leftover = self.socket_path.exists()
        service = self.start(**kwargs)
        self.check("stale-socket-reclaimed", leftover,
                   detail="crash left no socket file behind"
                   if not leftover else "")
        return service


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
def _scenario_torn_submit(report: ServiceChaosReport, root: Path) -> None:
    h = _Harness(report, "torn-submit", root)
    fired: dict[str, bool] = {}
    ledger_path = h.cache_dir / JobLedger.FILENAME

    def hook(data: bytes) -> bytes | None:
        if b'"name":"torn-victim"' in data and not fired.get("killed"):
            fired["killed"] = True
            # Torn write then death: half the record, ending inside a
            # multibyte UTF-8 sequence, no newline — then SIGKILL.
            with open(ledger_path, "ab") as fh:
                fh.write(data[: len(data) // 2] + b"\xe2\x82")
            raise SimulatedKill("torn ledger append")
        return None

    service = h.start()
    service.ledger.fault_hook = hook
    accepted_ok = False
    victim_rejected = False
    with h.client() as client:
        job = client.submit("survivor", _configs(2))
        accepted_ok = bool(job.get("job_id"))
        try:
            client.submit("torn-victim", _configs(1))
        except (ServiceUnavailable, ServiceError):
            victim_rejected = True
    _wait_flag(fired, "killed")
    h.crash()

    service = h.restart_after_crash()
    with h.client() as client:
        finished = _wait_terminal(client)
    torn = service.ledger.torn_lines
    h.stop()

    states = _ledger_by_name(h.cache_dir)
    h.check("accepted-before-ack", accepted_ok and victim_rejected,
            detail=f"survivor acked={accepted_ok}, "
                   f"torn submission errored={victim_rejected}")
    h.check("torn-line-tolerated", torn >= 1,
            detail=f"replay counted {torn} torn line(s)")
    h.check("accepted-jobs-survive",
            finished and states.get("survivor") == ["completed"],
            detail=f"survivor states after restart: "
                   f"{states.get('survivor')}")
    h.check("unacked-not-resurrected", "torn-victim" not in states,
            detail=f"torn submission reappeared as {states.get('torn-victim')}")
    report.scenarios.append({
        "scenario": "torn-submit", "torn_lines": torn,
        "states": {k: sorted(v) for k, v in sorted(states.items())},
    })


def _scenario_kill_at_running(report: ServiceChaosReport,
                              root: Path) -> None:
    h = _Harness(report, "kill-at-running", root)
    fired: dict[str, bool] = {}

    def hook(data: bytes) -> bytes | None:
        if b'"state":"running"' in data and not fired.get("killed"):
            fired["killed"] = True
            raise SimulatedKill("kill at queued->running transition")
        return None

    service = h.start()
    service.ledger.fault_hook = hook
    with h.client() as client:
        client.submit("resumable", _configs(2))
    _wait_flag(fired, "killed")
    h.crash()

    service = h.restart_after_crash()
    resumed = service._n_resumed
    with h.client() as client:
        finished = _wait_terminal(client)
    h.stop()

    states = _ledger_by_name(h.cache_dir)
    h.check("killed-transition-resumes", resumed == 1,
            detail=f"restart resumed {resumed} job(s), expected 1")
    h.check("accepted-jobs-survive",
            finished and states.get("resumable") == ["completed"],
            detail=f"states after restart: {states.get('resumable')}")
    report.scenarios.append({
        "scenario": "kill-at-running", "resumed": resumed,
        "states": {k: sorted(v) for k, v in sorted(states.items())},
    })


def _scenario_duplicate_terminal(report: ServiceChaosReport,
                                 root: Path) -> None:
    h = _Harness(report, "duplicate-terminal", root)
    h.start()
    with h.client() as client:
        client.submit("doubled", _configs(1))
        _wait_terminal(client)
    h.stop()

    # Crash-between-append-and-ack, replayed on restart: the terminal
    # transition lands in the ledger twice.
    ledger = JobLedger(h.cache_dir / JobLedger.FILENAME)
    replayed = {spec.name: (jid, state)
                for jid, (spec, state) in ledger.replay().items()}
    jid, state = replayed["doubled"]
    ledger._append({"event": "state", "job_id": jid, "state": state,
                    "error": "", "t": 0.0})

    service = h.start()
    duplicates = service.ledger.duplicate_transitions
    resumed = service._n_resumed
    h.stop()

    states = _ledger_by_name(h.cache_dir)
    h.check("duplicate-terminal-tolerated", duplicates == 1,
            detail=f"replay counted {duplicates} duplicate "
                   f"transition(s), expected 1")
    h.check("not-duplicated", resumed == 0
            and states.get("doubled") == ["completed"],
            detail=f"resumed={resumed}, states={states.get('doubled')}")
    report.scenarios.append({
        "scenario": "duplicate-terminal",
        "duplicate_transitions": duplicates, "resumed": resumed,
        "states": {k: sorted(v) for k, v in sorted(states.items())},
    })


def _scenario_torn_frame(report: ServiceChaosReport, root: Path) -> None:
    h = _Harness(report, "torn-frame", root)
    h.start()
    raw = socket_module.socket(socket_module.AF_UNIX,
                               socket_module.SOCK_STREAM)
    raw.settimeout(10.0)
    raw.connect(str(h.socket_path))
    reader = raw.makefile("rb")
    try:
        reader.readline()  # hello
        # A submit frame cut mid-multibyte UTF-8 sequence.
        raw.sendall(b'{"v":1,"op":"submit","name":"\xe2\x82\n')
        error = json.loads(reader.readline())
        raw.sendall(b'{"v":1,"op":"ping"}\n')
        pong = json.loads(reader.readline())
    finally:
        reader.close()
        raw.close()
    with h.client() as client:
        admitted = len(client.jobs())
    h.stop()

    h.check("torn-frame-rejected",
            error.get("type") == "error"
            and error.get("code") == "protocol",
            detail=f"got {error.get('type')}/{error.get('code')}")
    h.check("connection-survives", pong.get("type") == "pong",
            detail=f"post-error frame was {pong.get('type')}")
    h.check("nothing-admitted", admitted == 0,
            detail=f"{admitted} job(s) admitted from a torn frame")
    report.scenarios.append({
        "scenario": "torn-frame", "error_code": error.get("code"),
        "admitted": admitted,
    })


def _scenario_hung_worker(report: ServiceChaosReport, root: Path) -> None:
    import threading

    h = _Harness(report, "hung-worker", root)
    release = threading.Event()
    calls: dict[str, int] = {"n": 0}

    def fn(config: ExperimentConfig) -> tuple[bool, Any]:
        calls["n"] += 1
        if calls["n"] == 1:
            # First attempt hangs until teardown (a wedged worker).
            release.wait(30.0)
            return False, RuntimeError("hung attempt released late")
        return simulate_config(config)

    service = h.start(
        retry=RetryPolicy(max_attempts=2, backoff_s=0.01, timeout_s=0.25),
        simulate_fn=fn)
    try:
        with h.client() as client:
            client.submit("wedged", _configs(1))
            finished = _wait_terminal(client)
        kills = service.scheduler.stats["watchdog_kills"]
    finally:
        release.set()
    h.stop()

    states = _ledger_by_name(h.cache_dir)
    h.check("watchdog-fires", kills == 1,
            detail=f"watchdog killed {kills} attempt(s), expected 1")
    h.check("killed-and-requeued",
            finished and states.get("wedged") == ["completed"],
            detail=f"states: {states.get('wedged')}")
    report.scenarios.append({
        "scenario": "hung-worker", "watchdog_kills": kills,
        "states": {k: sorted(v) for k, v in sorted(states.items())},
    })


def _scenario_expired_deadline(report: ServiceChaosReport,
                               root: Path) -> None:
    h = _Harness(report, "expired-deadline", root)

    def slow_fn(config: ExperimentConfig) -> tuple[bool, Any]:
        time.sleep(0.25)
        return simulate_config(config)

    h.start(max_jobs=1, simulate_fn=slow_fn)
    with h.client() as client:
        client.submit("occupier", _configs(2))
        # A disjoint config (no cache/dedup shortcut past the slow
        # worker) queued behind >=0.25s of busy slot with a 0.05s
        # budget: the reaper must expire it long before it could ever
        # finish (earliest completion >=0.5s, reaper latency <=~0.26s).
        doomed_config = ExperimentConfig(app="ffvc", n_ranks=8,
                                         n_threads=8)
        client.submit("doomed", [doomed_config], deadline_s=0.05)
        finished = _wait_terminal(client)
    h.stop()

    service = h.start()
    resumed = service._n_resumed
    h.stop()

    states = _ledger_by_name(h.cache_dir)
    h.check("deadline-expires",
            finished and states.get("doomed") == ["expired"],
            detail=f"states: {states.get('doomed')}")
    h.check("expiry-spares-others",
            states.get("occupier") == ["completed"],
            detail=f"states: {states.get('occupier')}")
    h.check("expired-stays-terminal", resumed == 0,
            detail=f"restart resumed {resumed} job(s), expected 0")
    report.scenarios.append({
        "scenario": "expired-deadline", "resumed": resumed,
        "states": {k: sorted(v) for k, v in sorted(states.items())},
    })


_SCENARIOS: tuple[tuple[str, Callable[[ServiceChaosReport, Path], None]],
                  ...] = (
    ("torn-submit", _scenario_torn_submit),
    ("kill-at-running", _scenario_kill_at_running),
    ("duplicate-terminal", _scenario_duplicate_terminal),
    ("torn-frame", _scenario_torn_frame),
    ("hung-worker", _scenario_hung_worker),
    ("expired-deadline", _scenario_expired_deadline),
)


def _no_lost_no_duplicates(report: ServiceChaosReport) -> None:
    """The campaign-level invariant over every scenario's ledger view:
    each accepted job name maps to exactly one job id in exactly one
    terminal state."""
    for record in report.scenarios:
        states = record.get("states")
        if not isinstance(states, dict):
            continue
        for name, per_id in states.items():
            report.invariants.append(Invariant(
                id="exactly-one-terminal", app="service",
                scenario=str(record["scenario"]),
                ok=len(per_id) == 1 and per_id[0] in TERMINAL_STATES,
                detail=f"job {name!r} -> {per_id}"))


def _run_once(seed: int, root: Path) -> ServiceChaosReport:
    report = ServiceChaosReport(seed=seed)
    for name, scenario in _SCENARIOS:
        scenario(report, root / name)
    _no_lost_no_duplicates(report)
    return report


def run_service_campaign(seed: int = 0, *,
                         workdir: str | Path | None = None
                         ) -> ServiceChaosReport:
    """Run the service chaos ladder twice and return the (replay-
    checked) report.

    ``workdir`` hosts the per-scenario cache/socket directories
    (default: a temporary directory, removed afterwards).
    """
    import tempfile

    def _both(root: Path) -> ServiceChaosReport:
        report = _run_once(seed, root / "run1")
        replay = _run_once(seed, root / "run2")
        report.invariants.append(Invariant(
            id="deterministic-replay", app="service", scenario="campaign",
            ok=json.dumps(report.to_json(), sort_keys=True)
            == json.dumps(replay.to_json(), sort_keys=True),
            detail="two runs of the same seed diverged"))
        # Self-reference guard: the invariant above compared the
        # pre-append payloads, so appending it keeps the artifact
        # itself reproducible.
        return report

    if workdir is not None:
        return _both(Path(workdir))
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        return _both(Path(tmp))
