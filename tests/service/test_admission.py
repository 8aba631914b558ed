"""Admission control: the --max-queued cap, typed overload errors,
client backoff, and the fallback="local" degraded path."""

from __future__ import annotations

import threading

import pytest

from repro.analysis.advisor import ENV_ADVISE, set_advise_mode
from repro.core.cache import ResultCache
from repro.core.experiment import ExperimentConfig
from repro.core.runner import run_sweep
from repro.errors import ServiceOverloaded, ServiceUnavailable
from repro.service.client import ServiceClient
from repro.service.server import SweepService, serve_in_thread

from .conftest import tiny_configs


@pytest.fixture
def blocked_service(cache, socket_path):
    """A server whose executions block until the test releases them —
    submitted jobs stay pending, so the admission cap is observable."""
    release = threading.Event()

    def blocked(config):
        from repro.core.parallel import simulate_config

        release.wait(30.0)
        return simulate_config(config)

    svc = SweepService(socket_path, cache=cache, workers=1, max_jobs=2,
                       max_queued=3, simulate_fn=blocked)
    thread = serve_in_thread(svc)
    yield svc, release
    release.set()
    thread.stop()


def test_exactly_k_overflow_submissions_rejected(blocked_service,
                                                 socket_path):
    _svc, release = blocked_service
    with ServiceClient(socket_path, timeout_s=60.0) as client:
        accepted = [client.submit(f"fill-{i}", tiny_configs(n=1))
                    for i in range(3)]          # up to the cap
        rejected = 0
        for i in range(4):                      # k = 4 over the cap
            with pytest.raises(ServiceOverloaded):
                client.submit(f"over-{i}", tiny_configs(n=1))
            rejected += 1
        assert rejected == 4
        # nothing lost, nothing duplicated: exactly the accepted jobs
        # exist, and every rejected submission left no trace
        jobs = client.jobs()
        assert len(jobs) == 3
        assert {j["job_id"] for j in jobs} \
            == {j["job_id"] for j in accepted}
        release.set()
        for job in accepted:
            assert client.wait(job["job_id"])["state"] == "completed"
        assert client.status()["jobs_rejected"] == 4


def test_overload_error_carries_backpressure_hints(blocked_service,
                                                   socket_path):
    _svc, _release = blocked_service
    with ServiceClient(socket_path, timeout_s=60.0) as client:
        for i in range(3):
            client.submit(f"fill-{i}", tiny_configs(n=1))
        with pytest.raises(ServiceOverloaded) as err:
            client.submit("over", tiny_configs(n=1))
    exc = err.value
    assert exc.retryable is True
    assert isinstance(exc, ServiceUnavailable)   # retryable family
    assert exc.queue_depth == 3
    assert exc.max_queued == 3
    assert exc.retry_after_s > 0


def test_run_sweep_backs_off_through_transient_overload(
        blocked_service, socket_path):
    _svc, release = blocked_service
    with ServiceClient(socket_path, timeout_s=60.0) as saturator:
        for i in range(3):          # fill the queue to max_queued=3
            saturator.submit(f"fill-{i}", tiny_configs(n=1))
        # while the new client backs off, the saturating jobs drain
        unblock = threading.Timer(0.3, release.set)
        unblock.start()
        client = ServiceClient(socket_path, timeout_s=60.0,
                               backoff_s=0.05, jitter_seed=7,
                               overload_retries=30)
        try:
            with client:
                result = client.run_sweep("retried", tiny_configs(n=1))
        finally:
            unblock.cancel()
        assert len(result.rows) == 1
        assert saturator.status()["jobs_rejected"] >= 1


def test_fallback_local_is_bit_identical(blocked_service, socket_path,
                                         tmp_path):
    _svc, _release = blocked_service
    configs = tiny_configs(n=2)
    with ServiceClient(socket_path, timeout_s=60.0) as client:
        for i in range(3):
            client.submit(f"fill-{i}", tiny_configs(n=1))
        degraded = ServiceClient(socket_path, timeout_s=60.0,
                                 backoff_s=0.001, jitter_seed=3,
                                 overload_retries=2)
        with degraded:
            result = degraded.run_sweep("degraded", configs,
                                        fallback="local")
    direct = run_sweep("degraded", configs,
                       ResultCache(tmp_path / "direct"), engine="event")
    assert result.rows == direct.rows
    assert [r.elapsed for r in result.rows] \
        == [r.elapsed for r in direct.rows]


def test_fallback_local_on_unreachable_server(tmp_path):
    client = ServiceClient(tmp_path / "nobody-home.sock",
                           connect_retries=0, timeout_s=5.0)
    result = client.run_sweep("offline", tiny_configs(n=1),
                              fallback="local")
    assert len(result.rows) == 1
    with pytest.raises(ServiceUnavailable):
        client.run_sweep("offline", tiny_configs(n=1))


def test_fallback_local_ignores_the_global_advise_mode(tmp_path,
                                                      monkeypatch):
    """The served path never runs the advise gate, so the degraded path
    must not either: an under-subscribed config the gate would block
    still comes back as a row."""
    monkeypatch.setenv(ENV_ADVISE, "off")  # restored on teardown
    set_advise_mode("error")
    configs = [ExperimentConfig(app="ntchem", n_ranks=1, n_threads=1)]
    client = ServiceClient(tmp_path / "nobody-home.sock",
                           connect_retries=0, timeout_s=5.0)
    result = client.run_sweep("offline", configs, engine="analytic",
                              fallback="local")
    assert [row.config for row in result.rows] == configs
    assert result.errors == []


def test_rejects_bad_fallback_value(tmp_path):
    client = ServiceClient(tmp_path / "x.sock", connect_retries=0)
    with pytest.raises(ValueError, match="fallback"):
        client.run_sweep("x", tiny_configs(n=1), fallback="remote")


def test_backoff_jitter_is_seeded_and_floored():
    a = ServiceClient("/tmp/x.sock", jitter_seed=42, backoff_s=0.1)
    b = ServiceClient("/tmp/x.sock", jitter_seed=42, backoff_s=0.1)
    c = ServiceClient("/tmp/x.sock", jitter_seed=43, backoff_s=0.1)
    seq_a = [a._backoff_delay(i) for i in range(5)]
    seq_b = [b._backoff_delay(i) for i in range(5)]
    seq_c = [c._backoff_delay(i) for i in range(5)]
    assert seq_a == seq_b          # same seed, same schedule
    assert seq_a != seq_c          # different seed, spread out
    for i, delay in enumerate(seq_a):
        assert 0.05 * 2**i <= delay < 0.1 * 2**i
    # the server's retry_after_s hint is a floor, never ignored
    assert a._backoff_delay(0, floor_s=9.0) == 9.0


def test_env_var_sets_the_admission_cap(cache, socket_path, monkeypatch):
    monkeypatch.setenv("REPRO_SERVICE_MAX_QUEUED", "2")
    svc = SweepService(socket_path, cache=cache)
    assert svc.max_queued == 2
    monkeypatch.setenv("REPRO_SERVICE_MAX_QUEUED", "0")
    assert SweepService(socket_path, cache=cache).max_queued is None
    monkeypatch.delenv("REPRO_SERVICE_MAX_QUEUED")
    assert SweepService(socket_path, cache=cache).max_queued is None
    flag_wins = SweepService(socket_path, cache=cache, max_queued=7)
    assert flag_wins.max_queued == 7
