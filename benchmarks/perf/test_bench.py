"""Tests of the benchmark harness: ``pytest benchmarks/perf -q``."""

from __future__ import annotations

import json
import math
import os

import time

import pytest

import bench
import hostspeed
import tracing
import workloads
from workloads import Request, build_plan, dse_requests, f1_configs

NAMES = tuple(workloads.WORKLOADS)


def _flat(plan):
    return [config for requests in plan.values() for request in requests
            for config in request.configs]


@pytest.mark.parametrize("name", NAMES)
def test_seed_fixes_the_plan(name):
    assert build_plan(name, 0) == build_plan(name, 0)


@pytest.mark.parametrize("name", NAMES)
def test_seeds_share_configs_not_order(name):
    zero, one = _flat(build_plan(name, 0)), _flat(build_plan(name, 1))
    assert set(zero) == set(one)
    assert zero != one


def test_service_plan_shares_half_the_event_requests():
    jobs = build_plan("service-mix", 0)["jobs"]
    event = [c for job in jobs if job.engine == "event" for c in job.configs]
    assert len(jobs) == 248
    assert len(set(event)) == len(event) // 2 == 216


def test_row_digest_is_order_and_repeat_free():
    from repro.core.runner import Row

    rows = [Row(config, 1.0 + i / 3, 2.0, 3.0, 0.25, "analytic")
            for i, config in enumerate(f1_configs("ffvc")[:3])]
    digest = workloads.row_digest(rows)
    assert digest == workloads.row_digest(rows[::-1] + rows[:1])
    assert digest == ("0c5622f42bf65f29e489bbe77b345cb2"
                      "8901878c80aa83aaa3d4065d81ee1834")
    changed = Row(rows[0].config, math.nextafter(rows[0].elapsed, 2.0),
                  2.0, 3.0, 0.25, "analytic")
    assert workloads.row_digest([changed, *rows[1:]]) != digest


class Toy:
    def __init__(self):
        self.calls = 0

    def outer(self):
        return self.inner() + self.inner()

    def inner(self):
        self.calls += 1
        return 1


def test_self_time_is_span_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    layers = (tracing.Layer("outer", ("test_bench:Toy.outer",)),
              tracing.Layer("inner", ("test_bench:Toy.inner",), hot=True))
    with tracing.Tracer(layers, clock=lambda: next(ticks)) as tracer:
        with tracer.request("r1"):
            assert Toy().outer() == 2
    table = tracer.layer_table(wall_s=12.0)
    assert table["outer.calls"] == 1 and table["outer.self_s"] == 5.0
    assert table["inner.calls"] == 2 and table["inner.self_s"] == 5.0
    assert table["unwrapped_s"] == 2.0
    [span] = tracer.spans()
    assert dict(zip(tracing.SPAN_FIELDS, span)) == {
        "id": 1, "parent": None, "layer": "outer", "function": "outer",
        "start_s": 0.0, "end_s": 10.0, "request": "r1",
        "folded": {"inner": [2, 5.0]}}


def test_reference_seconds_divide_by_the_nearest_slowdown():
    speed = hostspeed.HostSpeed(period_s=1.0)
    ref = hostspeed.REFERENCE_S
    speed.times = [0.0, 1.0, 2.0, 3.0, 4.0]
    speed.costs = [ref, ref, 2 * ref, 2 * ref, 2 * ref]
    # slowdowns, each the median of a sample and its neighbours:
    # 1, 1, 2, 2, 2; sample k is nearest on [k - 0.5, k + 0.5]
    assert speed.slowdowns() == [1.0, 1.0, 2.0, 2.0, 2.0]
    assert speed.reference_seconds(0.0, 1.5) == pytest.approx(1.5)
    assert speed.reference_seconds(1.5, 2.5) == pytest.approx(0.5)
    assert speed.reference_seconds(1.0, 3.0) == pytest.approx(0.5 + 0.75)
    # before the first sample and after the last: theirs
    assert speed.reference_seconds(-1.0, 0.0) == pytest.approx(1.0)
    assert speed.reference_seconds(4.0, 6.0) == pytest.approx(1.0)
    assert speed.reference_seconds(2.2, 2.2) == 0.0


def test_one_outlying_sample_is_ignored():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_S
    speed.times = [0.0, 0.1, 0.2]
    speed.costs = [ref, 5 * ref, ref]
    assert speed.reference_seconds(0.0, 0.2) == pytest.approx(0.2)


def test_host_speed_samples_while_started():
    speed = hostspeed.HostSpeed(period_s=0.01).start()
    time.sleep(0.05)
    speed.stop()
    assert len(speed.times) >= 3
    assert speed.times == sorted(speed.times)
    assert all(cost > 0 for cost in speed.costs)
    assert speed.reference_seconds(speed.times[0], speed.times[-1]) > 0


def test_pinned_runs_on_one_cpu_and_restores():
    allowed = os.sched_getaffinity(0)
    with hostspeed.pinned() as cpu:
        assert cpu == max(allowed)
        assert os.sched_getaffinity(0) == {cpu}
    assert os.sched_getaffinity(0) == allowed


def _raw(target):
    owner, attr = tracing.resolve(target)
    return vars(owner)[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_tracing_restores_every_patched_attribute():
    targets = [t for layer in tracing.LAYERS for t in layer.targets]
    before = {t: _raw(t) for t in targets}
    with tracing.Tracer():
        assert all(_raw(t) is not before[t] for t in targets)
    assert all(_raw(t) is before[t] for t in targets)


def _tiny_plan(name):
    cheap = [Request(f"ntchem-{i}", "event", (config,))
             for i, config in enumerate(f1_configs("ntchem")[:3])]
    grid = dse_requests(("as-is",))[:3]
    if name == "event-f1":
        return {"sweep": cheap}
    if name == "analytic-dse":
        return {"sweep": grid}
    if name == "store-session":
        return {"write": grid, "read-0": grid[::-1]}
    fresh = f1_configs("ntchem", stride=2)
    return {"jobs": [
        Request("job-0", "event", (fresh[0], fresh[1], fresh[0], fresh[1])),
        Request("job-1", "analytic", grid[0].configs),
        Request("job-2", "event", (fresh[2], fresh[3], fresh[0], fresh[3])),
    ]}


@pytest.fixture()
def scratch(tmp_path, monkeypatch):
    for var in bench.UNSET_ENV:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


@pytest.mark.parametrize("name", NAMES)
def test_workload_completes_on_a_tiny_plan(name, scratch):
    plan = _tiny_plan(name)
    result = workloads.run_round(name, 0, scratch, trace=True, plan=plan)
    assert result["failed"] == 0
    assert result["attempted"] == len(_flat(plan))
    assert result["requests"] == sum(len(r) for r in plan.values())
    # reference-host figures are the wall-clock ones over the host factor
    assert result["configs_per_s"] == pytest.approx(
        result["raw"]["configs_per_s"] * result["host_factor"])
    # every end-to-end metric, latencies pooled over the rounds
    values, details = workloads.summarize([result, result])
    assert set(values) == {m["name"] for m in bench.load_spec()["end_to_end"]}
    assert sum(v for k, v in details.items() if k.endswith("_n")) == \
        2 * result["requests"]
    layers = result["layers"]
    if name != "service-mix":  # one thread: the accounting closes
        self_s = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        assert self_s + layers["unwrapped_s"] == \
            pytest.approx(layers["traced_wall_s"], abs=1e-6)
    assert result["spans"]
    # telemetry is on by default: every workload records runs
    assert list((scratch / "results").glob("runs/*"))


def test_work_slot_is_the_one_touched_longest_ago(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK", tmp_path / "work")
    slots = [tmp_path / "work" / f"slot-{i}" for i in range(bench.SLOTS)]
    assert bench.work_slot() in slots
    for i, slot in enumerate(slots):
        os.utime(slot, (2000, 1000 if i == 5 else 2000 + i))
    assert bench.work_slot() == slots[5]


def _record(path, values, details=None, names=NAMES):
    metrics = {name: {"end_to_end": values, "details": details or {},
                      "per_layer": {}} for name in names}
    path.write_text(json.dumps({"manifest": {}, "metrics": metrics,
                                "summary": {}}) + "\n")


def _verdicts(out):
    """(workload, metric) -> verdict of each compared row."""
    rows = [line.split() for line in out.splitlines()[1:]]
    return {(row[0], row[1]): row[-1] for row in rows
            if row[-1] in ("ok", "WORSE", "unresolved")}


def test_compare_flags_regressions_and_unresolved(tmp_path, capsys):
    spec = bench.load_spec()
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    _record(old, {"configs_per_s": [100, 101, 99, 100],
                  "request_p50_s": [1.0, 1.0, 1.0, 1.0],
                  "setup_s": [1.0, 2.0, 1.0, 2.0]},
            {"read_configs_per_s": [50, 50, 50, 50],
             "read_p50_s": [1.0, 1.0, 1.0, 1.0], "read_n": [9, 9, 9, 9]})
    _record(new, {"configs_per_s": [100, 101, 99, 100],
                  "request_p50_s": [1.01, 1.0, 1.0, 1.0],
                  "setup_s": [1.0, 1.0, 1.0, 1.0]},
            {"read_configs_per_s": [25, 25, 25, 25],
             "read_p50_s": [2.0, 2.0, 2.0, 2.0], "read_n": [9, 9, 9, 9]})
    assert bench.compare_main(str(old), str(new), spec) == 1
    verdicts = _verdicts(capsys.readouterr().out)
    assert {m for w, m in verdicts if w == "event-f1"} == {
        "configs_per_s", "request_p50_s", "setup_s", "read_configs_per_s",
        "read_p50_s"}
    assert verdicts["event-f1", "configs_per_s"] == "ok"
    assert verdicts["event-f1", "request_p50_s"] == "ok"
    assert verdicts["event-f1", "setup_s"] == "unresolved"
    # a per-kind detail is gated like the end-to-end metric it splits
    assert verdicts["event-f1", "read_configs_per_s"] == "WORSE"
    assert verdicts["event-f1", "read_p50_s"] == "WORSE"


def test_compare_refuses_a_record_missing_a_workload(tmp_path, capsys):
    spec = bench.load_spec()
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    _record(old, {"configs_per_s": [100, 100]})
    _record(new, {"configs_per_s": [100, 100]}, names=NAMES[:-1])
    assert bench.compare_main(str(old), str(new), spec) == 2
    assert NAMES[-1] in capsys.readouterr().err
