"""Operational hardening: health probes, heartbeats, the execution
watchdog, deadline expiry, and stale-socket recovery."""

from __future__ import annotations

import asyncio
import json
import socket as socket_mod
import threading
import time

import pytest

from repro.core.experiment import ExperimentConfig
from repro.core.parallel import RetryPolicy, simulate_config
from repro.errors import ServiceError
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.server import SweepService, serve_in_thread

from .conftest import tiny_configs


# ----------------------------------------------------------------------
# health probe
# ----------------------------------------------------------------------
def test_health_reports_the_operational_snapshot(service, client):
    health = client.health()
    assert health["status"] == "ok"
    assert health["pending"] == 0
    assert health["queue_depth"] == 0
    assert health["running"] == 0
    assert health["max_jobs"] == 4
    assert health["max_queued"] is None
    assert health["pool_state"] in ("cold", "warm", "broken")
    assert health["watchdog_kills"] == 0
    assert health["uptime_s"] >= 0
    assert health["pid"] > 0
    assert health["fair_share"]["slots"] == 4
    assert health["ledger_lag_s"] is None   # nothing appended yet


def test_health_tracks_jobs_and_ledger_activity(service, client):
    client.run_sweep("probe", tiny_configs(n=2))
    health = client.health()
    assert health["jobs_by_state"] == {"completed": 1}
    assert health["pending"] == 0
    assert health["ledger_lag_s"] is not None
    assert health["fair_share"]["granted"] == 1


# ----------------------------------------------------------------------
# heartbeats
# ----------------------------------------------------------------------
def test_silent_stream_carries_heartbeats(cache, socket_path):
    def slow(config):
        time.sleep(0.4)
        return simulate_config(config)

    svc = SweepService(socket_path, cache=cache, workers=1,
                       heartbeat_s=0.05, simulate_fn=slow)
    thread = serve_in_thread(svc)
    try:
        # raw socket: the client SDK swallows heartbeats, the wire
        # must show them
        raw = socket_mod.socket(socket_mod.AF_UNIX,
                                socket_mod.SOCK_STREAM)
        raw.settimeout(30.0)
        raw.connect(str(socket_path))
        with raw, raw.makefile("rb") as reader:
            hello = json.loads(reader.readline())
            assert hello["type"] == "hello"
            frame = protocol.submit_frame(
                "slow", tiny_configs(n=1), "event", watch=True)
            raw.sendall(protocol.encode_frame(frame))
            kinds = []
            while True:
                kind = json.loads(reader.readline()).get("type")
                kinds.append(kind)
                if kind == "done":
                    break
        assert kinds.count("heartbeat") >= 1
        assert kinds.index("heartbeat") < kinds.index("row")
    finally:
        thread.stop()


def test_heartbeats_can_be_disabled(cache, socket_path):
    svc = SweepService(socket_path, cache=cache, heartbeat_s=None)
    assert svc.heartbeat_s is None
    thread = serve_in_thread(svc)
    try:
        with ServiceClient(socket_path, timeout_s=60.0) as client:
            assert client.health()["heartbeat_s"] is None
    finally:
        thread.stop()


# ----------------------------------------------------------------------
# execution watchdog
# ----------------------------------------------------------------------
def test_retry_policy_timeout_arms_the_watchdog(socket_path):
    svc = SweepService(socket_path, retry=RetryPolicy(timeout_s=5))
    assert svc.scheduler.retry.timeout_s == 5
    assert svc.scheduler._slots is not None


def test_default_service_has_no_watchdog(socket_path):
    svc = SweepService(socket_path)
    assert svc.scheduler.retry.timeout_s is None
    assert svc.scheduler._slots is None


def test_watchdog_kills_stalled_execution_and_retry_succeeds(
        cache, socket_path):
    hang = threading.Event()
    calls: list[int] = []

    def stall_once(config):
        calls.append(1)
        if len(calls) == 1:
            hang.wait(10.0)     # first attempt never progresses
        return simulate_config(config)

    svc = SweepService(socket_path, cache=cache, workers=1,
                       retry=RetryPolicy(max_attempts=2, backoff_s=0.01,
                                         timeout_s=0.25),
                       simulate_fn=stall_once)
    thread = serve_in_thread(svc)
    try:
        with ServiceClient(socket_path, timeout_s=60.0) as client:
            result = client.run_sweep("stalled", tiny_configs(n=1))
            assert len(result.rows) == 1
            assert result.errors == []
            status = client.status()
        assert status["watchdog_kills"] == 1
        assert len(calls) == 2      # killed once, retried once
    finally:
        hang.set()
        thread.stop()


def test_watchdog_exhausting_retries_fails_the_config(cache,
                                                      socket_path):
    hang = threading.Event()

    def always_stalls(config):
        hang.wait(10.0)
        return simulate_config(config)

    svc = SweepService(socket_path, cache=cache, workers=1,
                       retry=RetryPolicy(max_attempts=2, backoff_s=0.01,
                                         timeout_s=0.2),
                       simulate_fn=always_stalls)
    thread = serve_in_thread(svc)
    try:
        with ServiceClient(socket_path, timeout_s=60.0) as client:
            result = client.run_sweep("doomed", tiny_configs(n=1))
            assert result.rows == []
            assert len(result.errors) == 1
            assert "watchdog" in result.errors[0].message
            assert client.status()["watchdog_kills"] == 2
    finally:
        hang.set()
        thread.stop()


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------
def test_queued_job_past_deadline_expires(cache, socket_path):
    release = threading.Event()

    def blocked(config):
        release.wait(30.0)
        return simulate_config(config)

    svc = SweepService(socket_path, cache=cache, workers=1, max_jobs=1,
                       simulate_fn=blocked)
    thread = serve_in_thread(svc)
    try:
        with ServiceClient(socket_path, timeout_s=60.0) as client:
            occupier = client.submit("occupier", tiny_configs(n=1))
            doomed = client.submit(
                "doomed",
                [ExperimentConfig(app="ffvc", n_ranks=8, n_threads=8)],
                deadline_s=0.05)
            final = client.wait(doomed["job_id"])
            assert final["state"] == "expired"
            assert "deadline" in final["error"]
            release.set()
            assert client.wait(occupier["job_id"])["state"] \
                == "completed"
            status = client.status()
            assert status["jobs_expired"] == 1
            assert status["jobs_by_state"] == {"completed": 1,
                                               "expired": 1}
    finally:
        release.set()
        thread.stop()


# ----------------------------------------------------------------------
# stale sockets
# ----------------------------------------------------------------------
def test_dead_socket_file_is_reclaimed(cache, socket_path):
    leftover = socket_mod.socket(socket_mod.AF_UNIX,
                                 socket_mod.SOCK_STREAM)
    leftover.bind(str(socket_path))
    leftover.close()            # crashed server: file without listener
    assert socket_path.exists()
    thread = serve_in_thread(SweepService(socket_path, cache=cache))
    try:
        with ServiceClient(socket_path, timeout_s=30.0) as client:
            assert client.ping() >= 0
    finally:
        thread.stop()


def test_live_socket_is_refused(cache, socket_path, tmp_path):
    thread = serve_in_thread(SweepService(socket_path, cache=cache))
    try:
        from repro.core.cache import ResultCache

        impostor = SweepService(socket_path,
                                cache=ResultCache(tmp_path / "other"))
        with pytest.raises(ServiceError, match="live"):
            asyncio.run(impostor.start())
        # the incumbent is untouched
        with ServiceClient(socket_path, timeout_s=30.0) as client:
            assert client.health()["status"] == "ok"
    finally:
        thread.stop()
