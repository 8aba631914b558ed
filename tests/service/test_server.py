"""Server basics: ops, streaming parity with run_sweep, quarantine."""

import socket as socket_mod

import pytest

from repro.core.cache import ResultCache
from repro.core.journal import SweepJournal
from repro.core.runner import QUARANTINE_AFTER, run_sweep
from repro.errors import ProtocolError
from repro.service import protocol
from repro.service.client import ServiceClient

from .conftest import tiny_configs


def test_hello_then_ping(client):
    assert client.server_info["type"] == "hello"
    assert client.server_info["v"] == protocol.PROTOCOL_VERSION
    assert client.ping() < 60.0


def test_status_reports_scheduler_stats(client):
    stats = client.status()
    for key in ("executed", "dedup_hits", "cache_hits", "jobs_total",
                "draining", "uptime_s"):
        assert key in stats
    assert stats["draining"] is False


def test_jobs_empty_initially(client):
    assert client.jobs() == []


def test_run_sweep_matches_direct_bit_for_bit(client, tmp_path):
    configs = tiny_configs(n=3)
    direct = run_sweep("parity", configs,
                       ResultCache(tmp_path / "direct"), engine="event")
    via_service = client.run_sweep("parity", configs, engine="event")
    assert via_service.rows == direct.rows
    assert [r.elapsed for r in via_service.rows] \
        == [r.elapsed for r in direct.rows]
    assert via_service.errors == []


def test_rows_cached_for_the_next_job(client):
    configs = tiny_configs(n=2)
    first = client.run_sweep("warm", configs, engine="event")
    again = client.run_sweep("warm", configs, engine="event")
    assert again.rows == first.rows
    stats = client.status()
    assert stats["executed"] == 2       # the second job hit the cache
    assert stats["cache_hits"] >= 2


def test_duplicate_configs_within_a_job_simulate_once(client):
    config = tiny_configs(n=1)[0]
    result = client.run_sweep("dup", [config, config, config],
                              engine="event")
    assert len(result.rows) == 3
    assert len(set(map(id, result.rows))) >= 1
    assert client.status()["executed"] == 1


@pytest.mark.parametrize("engine", ["analytic", "auto"])
def test_analytic_and_auto_jobs_match_direct_bit_for_bit(client, tmp_path,
                                                         engine):
    configs = tiny_configs(n=4)
    direct = run_sweep("parity", configs,
                       ResultCache(tmp_path / "direct"), engine=engine)
    via_service = client.run_sweep("parity", configs, engine=engine)
    assert via_service.rows == direct.rows
    assert [r.elapsed for r in via_service.rows] \
        == [r.elapsed for r in direct.rows]
    assert via_service.errors == []


def test_analytic_scoring_error_is_one_row_error(client, tmp_path,
                                                 monkeypatch):
    from repro.analytic import engine as analytic_engine

    configs = tiny_configs(n=4)
    direct = run_sweep("direct", configs,
                       ResultCache(tmp_path / "direct"), engine="analytic")
    broken = configs[2]
    real_score = analytic_engine._score

    def score(config):
        if config == broken:
            raise RuntimeError("synthetic scoring failure")
        return real_score(config)

    monkeypatch.setattr(analytic_engine, "_score", score)
    frames = list(client.stream("one-bad", configs, engine="analytic"))
    row_errors = [f for f in frames if f["type"] == "row-error"]
    assert len(row_errors) == 1
    assert row_errors[0]["index"] == 2
    assert "synthetic scoring failure" in row_errors[0]["message"]
    done = [f for f in frames if f["type"] == "done"][0]["job"]
    assert done["state"] == "completed"
    assert done["n_done"] == 3 and done["n_failed"] == 1
    rows = {i: row for i, row, _source in
            (protocol.parse_row(f) for f in frames if f["type"] == "row")}
    assert rows == {i: row for i, row in enumerate(direct.rows) if i != 2}


def test_overlapping_analytic_jobs_score_each_config_once(client):
    configs = tiny_configs(n=5)
    first = client.submit("overlap-a", configs[:4], engine="analytic")
    second = client.submit("overlap-b", configs[1:], engine="analytic")
    for job in (first, second):
        frames = list(client.watch(job["job_id"]))
        assert frames[-1]["job"]["state"] == "completed"
        assert frames[-1]["job"]["n_done"] == 4
    assert client.status()["executed"] == len(configs)


def test_quarantined_configs_reported_per_job(service, client, cache_dir):
    configs = tiny_configs(n=3)
    poisoned = configs[1]
    journal = SweepJournal(ResultCache(cache_dir))
    for _ in range(QUARANTINE_AFTER):
        journal.record("quar", poisoned, ok=False,
                       exc=RuntimeError("synthetic crash"))

    frames = list(client.stream("quar", configs, engine="event"))
    row_errors = [f for f in frames if f["type"] == "row-error"]
    assert len(row_errors) == 1
    assert row_errors[0]["index"] == 1
    assert row_errors[0]["quarantined"] is True
    assert "synthetic crash" in row_errors[0]["message"]
    done = [f for f in frames if f["type"] == "done"][0]["job"]
    assert done["n_quarantined"] == 1
    assert done["n_done"] == 2
    # quarantine is per sweep name: a different sweep still runs it
    clean = client.run_sweep("other-sweep", [poisoned], engine="event")
    assert len(clean.rows) == 1


def test_protocol_error_keeps_connection_usable(service, socket_path):
    with socket_mod.socket(socket_mod.AF_UNIX) as raw:
        raw.settimeout(30)
        raw.connect(str(socket_path))
        reader = raw.makefile("rb")
        assert protocol.decode_frame(reader.readline())["type"] == "hello"
        raw.sendall(b"this is not json\n")
        reply = protocol.decode_frame(reader.readline())
        assert reply["type"] == "error" and reply["code"] == "protocol"
        raw.sendall(protocol.encode_frame(
            {"v": protocol.PROTOCOL_VERSION, "op": "ping"}))
        assert protocol.decode_frame(reader.readline())["type"] == "pong"


def test_submit_rejects_malformed_specs(client):
    client._write_frame({"v": protocol.PROTOCOL_VERSION, "op": "submit",
                         "name": "bad", "engine": "event",
                         "configs": [{"app": "no-such-app"}]})
    with pytest.raises(ProtocolError, match="bad-request: configs"):
        reply = client._read_frame()
        client._raise_error(reply)


def test_watch_unknown_job_errors(client):
    with pytest.raises(ProtocolError, match="no job matches"):
        list(client.watch("nope-never-existed"))


def test_watch_replays_finished_job(service, socket_path, client):
    configs = tiny_configs(n=2)
    job = None
    for frame in client.stream("replay", configs, engine="event"):
        if frame["type"] == "job":
            job = frame["job"]
    assert job is not None
    # a second client attaching after completion sees the whole stream
    with ServiceClient(socket_path, timeout_s=60) as late:
        frames = list(late.watch(job["job_id"]))
    kinds = [f["type"] for f in frames]
    assert kinds[0] == "job" and kinds[-1] == "done"
    assert kinds.count("row") == 2


def test_job_id_prefix_lookup(client):
    configs = tiny_configs(n=1)
    job = client.submit("prefix", configs, engine="event")
    final = client.wait(job["job_id"][:18])
    assert final["state"] == "completed"
