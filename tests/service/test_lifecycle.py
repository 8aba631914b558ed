"""Lifecycle and robustness: concurrency, cancel, drain, resume,
typed unavailability, and per-job telemetry runs."""

import threading
import time

import pytest

from repro.core.cache import ResultCache
from repro.core.experiment import ExperimentConfig
from repro.core.runner import run_sweep
from repro.errors import ServiceUnavailable
from repro.service.client import ServiceClient
from repro.service.jobs import JobLedger, JobRecord, JobSpec, new_job_id
from repro.service.server import SweepService, serve_in_thread

from .conftest import tiny_configs


def slow_configs(n=4):
    """Event configs slow enough (~0.3-0.6 s each) to catch mid-run."""
    return [ExperimentConfig(app="ccs-qcd", n_ranks=4, n_threads=12,
                             n_nodes=nodes)
            for nodes in range(1, n + 1)]


# ----------------------------------------------------------------------
# concurrent clients
# ----------------------------------------------------------------------
def test_overlapping_sweeps_simulate_each_config_once(
        service, socket_path, tmp_path):
    configs = tiny_configs(n=3)
    direct = run_sweep("fleet", configs,
                       ResultCache(tmp_path / "direct"), engine="event")
    results, failures = {}, []

    def one_client(tag):
        try:
            with ServiceClient(socket_path, timeout_s=120) as c:
                results[tag] = c.run_sweep("fleet", configs,
                                           engine="event")
        except Exception as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    threads = [threading.Thread(target=one_client, args=(i,))
               for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert not failures
    assert len(results) == 3
    for result in results.values():
        assert result.rows == direct.rows  # bit-identical, all clients
    stats = service.stats()
    # at most one simulation per unique config digest, fleet-wide
    assert stats["executed"] == len(configs)
    assert stats["dedup_hits"] + stats["cache_hits"] \
        == len(configs) * (len(threads) - 1)


# ----------------------------------------------------------------------
# cancel
# ----------------------------------------------------------------------
def test_cancel_mid_stream_is_resumable(service, socket_path, cache):
    configs = slow_configs(4)
    with ServiceClient(socket_path, timeout_s=120) as watcher, \
            ServiceClient(socket_path, timeout_s=120) as controller:
        stream = watcher.stream("cancel-me", configs, engine="event")
        job = next(stream)["job"]
        # wait for the first row, then cancel mid-stream
        for frame in stream:
            if frame["type"] == "row":
                controller.cancel(job["job_id"])
                break
        tail = list(stream)
    assert tail[-1]["type"] == "done"
    final = tail[-1]["job"]
    assert final["state"] == "cancelled"
    assert final["n_done"] < len(configs)

    # in-flight executions still land in the cache (that is what makes
    # the cancelled job resumable): resubmitting re-simulates nothing
    # that already finished
    with ServiceClient(socket_path, timeout_s=120) as again:
        redo = again.run_sweep("cancel-me", configs, engine="event")
    assert len(redo.rows) == len(configs)
    assert service.stats()["executed"] <= len(configs)


def test_cancel_queued_job(cache, socket_path):
    svc = SweepService(socket_path, cache=cache, workers=1, max_jobs=1)
    thread = serve_in_thread(svc)
    try:
        with ServiceClient(socket_path, timeout_s=120) as client:
            blocker = client.submit("blocker", slow_configs(2),
                                    engine="event")
            queued = client.submit("queued", tiny_configs(n=2),
                                   engine="event")
            cancelled = client.cancel(queued["job_id"])
            assert cancelled["state"] == "cancelled"
            # the cancelled job's watchers get a clean done frame
            final = client.wait(queued["job_id"])
            assert final["state"] == "cancelled"
            assert final["n_done"] == 0
            assert client.wait(blocker["job_id"])["state"] == "completed"
    finally:
        thread.stop()


def test_cancel_is_idempotent_on_terminal_jobs(client):
    job = client.submit("fin", tiny_configs(n=1), engine="event")
    client.wait(job["job_id"])
    final = client.cancel(job["job_id"])
    assert final["state"] == "completed"  # not clobbered


# ----------------------------------------------------------------------
# graceful shutdown + resume
# ----------------------------------------------------------------------
def test_drain_finishes_running_jobs(cache, socket_path):
    svc = SweepService(socket_path, cache=cache, workers=2)
    thread = serve_in_thread(svc)
    with ServiceClient(socket_path, timeout_s=120) as client:
        job = client.submit("draining", slow_configs(2), engine="event")
    thread.stop(timeout_s=120)  # SIGTERM equivalent: drain + join
    record = svc.jobs[job["job_id"]]
    assert record.state == "completed"
    assert record.n_done == 2
    # and the rows really are in the shared cache
    reread = ResultCache(cache.directory)
    assert all(reread.get(c) is not None for c in slow_configs(2))


def test_queued_jobs_survive_restart(cache, socket_path, tmp_path):
    svc1 = SweepService(socket_path, cache=cache, workers=1, max_jobs=1)
    thread1 = serve_in_thread(svc1)
    with ServiceClient(socket_path, timeout_s=120) as client:
        running = client.submit("restart-running", slow_configs(2),
                                engine="event")
        queued = client.submit("restart-queued", tiny_configs(n=2),
                               engine="event")
    # drain: the running job finishes, the queued one stays journaled
    thread1.stop(timeout_s=120)
    assert svc1.jobs[running["job_id"]].state == "completed"
    assert svc1.jobs[queued["job_id"]].state == "queued"

    # a new server on the same cache resumes it
    svc2 = SweepService(socket_path, cache=ResultCache(cache.directory),
                        workers=1)
    assert [s.job_id for s in svc2.ledger.incomplete()] \
        == [queued["job_id"]]
    thread2 = serve_in_thread(svc2)
    try:
        with ServiceClient(socket_path, timeout_s=120) as client:
            final = client.wait(queued["job_id"])
        assert final["state"] == "completed"
        assert final["n_done"] == 2
        assert svc2.stats()["jobs_resumed"] == 1
    finally:
        thread2.stop()


def test_ledger_resume_round_trips_the_spec(cache, socket_path):
    """A job written only to the ledger (server died pre-start) runs."""
    spec = JobSpec(job_id=new_job_id(), name="orphan", engine="event",
                   configs=tuple(tiny_configs(n=2)))
    JobLedger.for_cache(cache).record_submit(JobRecord(spec))
    svc = SweepService(socket_path, cache=cache, workers=1)
    thread = serve_in_thread(svc)
    try:
        with ServiceClient(socket_path, timeout_s=120) as client:
            final = client.wait(spec.job_id)
        assert final["state"] == "completed"
        assert final["n_done"] == 2
    finally:
        thread.stop()


# ----------------------------------------------------------------------
# typed unavailability
# ----------------------------------------------------------------------
def test_no_server_raises_service_unavailable(tmp_path):
    client = ServiceClient(tmp_path / "nobody-home.sock",
                           connect_retries=2, backoff_s=0.01)
    with pytest.raises(ServiceUnavailable) as info:
        client.connect()
    assert info.value.retryable
    assert "3 attempt(s)" in str(info.value)


def test_server_shutdown_surfaces_as_unavailable(cache, socket_path):
    svc = SweepService(socket_path, cache=cache, workers=1)
    thread = serve_in_thread(svc)
    client = ServiceClient(socket_path, timeout_s=30, connect_retries=0)
    client.connect()
    thread.stop(timeout_s=60)
    with pytest.raises(ServiceUnavailable):
        client.ping()
    client.close()


def test_draining_server_refuses_submits(cache, socket_path):
    svc = SweepService(socket_path, cache=cache, workers=1)
    thread = serve_in_thread(svc)
    try:
        with ServiceClient(socket_path, timeout_s=30) as client:
            svc.draining = True  # drain begun, socket still open
            with pytest.raises(ServiceUnavailable, match="draining"):
                client.submit("late", tiny_configs(n=1), engine="event")
    finally:
        svc.draining = False
        thread.stop()


# ----------------------------------------------------------------------
# per-job telemetry runs
# ----------------------------------------------------------------------
def test_concurrent_jobs_keep_their_own_records(monkeypatch, tmp_path):
    """Two jobs running at once share the server process's run log; each
    job's report shows only its own spans, metrics and rows."""
    from repro.telemetry import runlog
    from repro.telemetry.report import RunReport

    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    results = tmp_path / "results"
    cache = ResultCache(tmp_path / "cache")
    socket_path = tmp_path / "svc.sock"
    svc = SweepService(socket_path, cache=cache, workers=1,
                       results_dir=results)
    configs = {"telemetry-a": tiny_configs(n=4)[:2],
               "telemetry-b": tiny_configs(n=4)[2:]}
    failures = []

    def one_client(name):
        try:
            with ServiceClient(socket_path, timeout_s=120) as client:
                client.run_sweep(name, configs[name], engine="event")
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    thread = serve_in_thread(svc)
    try:
        clients = [threading.Thread(target=one_client, args=(name,))
                   for name in configs]
        for client in clients:
            client.start()
        for client in clients:
            client.join(120)
    finally:
        thread.stop()
    assert failures == []

    assert len(list((results / "runs").iterdir())) == 1  # one log
    runs = runlog.scan(results / "runs")
    assert len(runs) == 2  # one run per job
    for run_id in runs:
        report = RunReport.load(run_id, results)
        manifest = report.manifest
        name = manifest["name"]
        assert manifest["kind"] == "service-job"
        assert manifest["status"] == "completed"
        job_id = manifest["job_id"]
        assert job_id
        names = [span["name"] for span in report.spans]
        assert "queue-wait" in names and "execute" in names
        assert {span["attrs"]["job"] for span in report.spans
                if "job" in span.get("attrs", {})} == {job_id}
        labels = {c.label() for c in configs[name]}
        assert {span["attrs"]["config"] for span in report.spans
                if "config" in span.get("attrs", {})} == labels
        assert report.metric("service.jobs") == 1
        assert {row.label for row in report.rows} == labels
        assert report.torn_lines == 0


def test_torn_down_job_still_flushes_its_run(monkeypatch, tmp_path):
    """A job cancelled by a server teardown never finalizes its run;
    the records it had queued must still reach the run log."""
    from repro.core.parallel import simulate_config
    from repro.telemetry import runlog

    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    results = tmp_path / "results"
    socket_path = tmp_path / "svc.sock"
    release = threading.Event()

    def blocked(config):
        release.wait(30.0)
        return simulate_config(config)

    svc = SweepService(socket_path, cache=ResultCache(tmp_path / "cache"),
                       workers=1, results_dir=results, simulate_fn=blocked)
    thread = serve_in_thread(svc)
    try:
        with ServiceClient(socket_path, timeout_s=30) as client:
            job = client.submit("torn", tiny_configs(n=1), engine="event")
            deadline = time.monotonic() + 30
            while svc.jobs[job["job_id"]].state != "running":
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.01)
        thread.abort()  # cancels the running job: no finalize
    finally:
        release.set()
        thread.stop()

    (run,) = runlog.scan(results / "runs").values()
    assert run.checked_manifest()["status"] == "running"
    names = [span["name"] for span in run.spans]
    assert "queue-wait" in names and "execute" in names
    assert "service.jobs" in [metric["name"] for metric in run.metrics]


def test_jobs_queue_behind_max_jobs(cache, socket_path):
    svc = SweepService(socket_path, cache=cache, workers=1, max_jobs=1)
    thread = serve_in_thread(svc)
    try:
        with ServiceClient(socket_path, timeout_s=120) as client:
            first = client.submit("head", slow_configs(1), engine="event")
            second = client.submit("tail", tiny_configs(n=1),
                                   engine="event")
            time.sleep(0.05)
            states = {j["job_id"]: j["state"] for j in client.jobs()}
            assert states[second["job_id"]] == "queued"
            assert client.wait(second["job_id"])["state"] == "completed"
            assert client.wait(first["job_id"])["state"] == "completed"
    finally:
        thread.stop()
