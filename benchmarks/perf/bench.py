#!/usr/bin/env python3
"""Layered benchmark of the sweep pipeline: end-to-end and per-layer.

Run one workload (from the repository root)::

    python3 benchmarks/perf/bench.py --workload event-f1 --seed 0 \\
        --seconds 25 --trace 0

``--workload all`` runs the four workloads one after another.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The exit code is 1 when a config failed or a row digest
differs from ``reference.json``.

A run is a series of rounds, as many as end within ``--seconds`` (at
least one).  Each round runs in a fresh interpreter, pinned to one CPU,
with its own scratch directory under ``benchmarks/perf/.work`` (cache,
results, socket); it sets the workload up, which ``setup_s`` times from
the launch of the interpreter, and runs its plan once.  Throughput,
set-up time and memory are medians over the rounds, latency
percentiles are over the requests of all rounds.  Times are in seconds
of a reference host: each is divided by how much slower than that host
this one ran while it was measured (see ``hostspeed.py``); the run file
keeps the wall-clock figures as well.  Traced runs write
``benchmarks/perf/out/trace-<workload>.json``; every run writes
``benchmarks/perf/out/<workload>.json`` (manifest, metrics, summary).

Tooling::

    python3 benchmarks/perf/bench.py record --runs 10 --label TEXT
    python3 benchmarks/perf/bench.py compare OLD.jsonl NEW.jsonl

``record`` runs every workload once per seed and appends one record to
``trajectory.jsonl``, or nothing when a config failed; ``compare``
prints each (workload, metric) median and quartiles of the last record
of two such files, the end-to-end metrics and their per-request-kind
details, flags a median worse than the metric's bound and calls a
metric whose spread exceeds its bound unresolved.
"""

from __future__ import annotations

import argparse
import array
import fcntl
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SOURCE = ROOT / "src"
sys.path.insert(0, str(SOURCE))

from hostspeed import HostSpeed, pinned  # noqa: E402

WORK = HERE / ".work"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
TRAJECTORY = HERE / "trajectory.jsonl"

#: Variables that would change what is measured; children run without
#: them so the program's defaults are what gets measured.
UNSET_ENV = ("REPRO_TELEMETRY", "REPRO_NO_LINT", "REPRO_ADVISE",
             "REPRO_SERVICE_MAX_QUEUED", "REPRO_SERVICE_CLIENT")

#: A run measures no longer than this, and its rounds time out when it
#: has run this long, which keeps it inside its 180-second limit.
RUN_LIMIT_S = 150.0

#: Scratch slots under ``.work`` that runs take in turn (see
#: :func:`work_slot`): with runs of 20 s or more, a slot is reused after
#: ten minutes at the soonest.
SLOTS = 32

#: ``FS_IOC_GETFLAGS``, ``FS_IOC_SETFLAGS`` and ``FS_TOPDIR_FL`` of
#: ``linux/fs.h``.
_GETFLAGS, _SETFLAGS, _TOPDIR_FL = 0x80086601, 0x40086602, 0x00020000


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env(workdir: Path) -> dict[str, str]:
    """The environment of a round: defaults, scratch stores."""
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env["REPRO_CACHE_DIR"] = str(workdir / "cache")
    env["REPRO_RESULTS_DIR"] = str(workdir / "results")
    # telemetry's git probe stops at the checkout instead of searching
    # the directories above it
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    # relative to the child's working directory, which is ``workdir``:
    # a unix socket path must stay under about 100 bytes
    env["REPRO_SERVICE_SOCKET"] = "service.sock"
    # the same dict and set layouts in every round
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args: list[str], workdir: Path, **kwargs) -> subprocess.Popen:
    """This script in a fresh interpreter, in its own process group so
    that :func:`_reap` also stops the pool workers it spawned."""
    workdir.mkdir(parents=True)
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=workdir, env=child_env(workdir), start_new_session=True,
        **kwargs)


def _mark_top_directory(path: Path) -> None:
    """Ask the file system to spread the subdirectories of ``path`` over
    its inode groups (``chattr +T``), where it supports that."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            flags = array.array("i", [0])
            fcntl.ioctl(fd, _GETFLAGS, flags)
            flags[0] |= _TOPDIR_FL
            fcntl.ioctl(fd, _SETFLAGS, flags)
        finally:
            os.close(fd)
    except OSError:
        pass


def work_slot() -> Path:
    """The scratch slot under ``.work`` cleaned up least recently.

    A run deletes the tens of thousands of telemetry files its rounds
    wrote.  ext4 without a journal skips the inodes of files deleted in
    the last minute (six, while their inode table is unwritten) when it
    allocates new ones in the same inode group, at a lookup each: rounds
    that ran within six minutes of such a clean-up created files up to
    20 times slower, and the telemetry share of analytic-dse swung from
    5.5 s to 15 s a round.  ``.work`` is marked so that its slots sit in
    separate inode groups, and a run takes the slot whose last entry was
    added or removed longest ago (its mtime).
    """
    WORK.mkdir(exist_ok=True)
    _mark_top_directory(WORK)
    slots = [WORK / f"slot-{i}" for i in range(SLOTS)]
    for slot in slots:
        slot.mkdir(exist_ok=True)
    return min(slots, key=lambda slot: slot.stat().st_mtime_ns)


def _reap(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def run_child_round(workload: str, seed: int, trace: bool,
                    workdir: Path, timeout_s: float) -> dict:
    result_path = workdir / "result.json"
    trace_path = OUT / f"trace-{workload}.json"
    launched = time.perf_counter()
    proc = _child(["round", workload, str(seed), str(int(trace)),
                   str(result_path), str(trace_path), repr(launched)],
                  workdir, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=timeout_s)
    finally:
        _reap(proc)
    if code != 0:
        raise RuntimeError(f"round of {workload} exited with {code}")
    return json.loads(result_path.read_text())


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> dict:
    """As many rounds as end within ``seconds`` of the run's start (at
    least one): a round starts only if one as long as the longest so
    far would end in time.

    A traced run precedes each traced round with an untraced one; the
    ratio of their median measured times is ``trace_overhead_pct``.
    """
    began = time.perf_counter()
    deadline = began + min(seconds, RUN_LIMIT_S)
    workdir = work_slot() / f"{workload}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    rounds: list[dict] = []
    untraced: list[dict] = []
    took: list[float] = []
    try:
        while not took or time.perf_counter() + max(took) <= deadline:
            start = time.perf_counter()
            if trace:
                untraced.append(run_child_round(
                    workload, seed, False, workdir / f"plain-{len(rounds)}",
                    began + RUN_LIMIT_S - start))
            rounds.append(run_child_round(
                workload, seed, trace, workdir / f"round-{len(rounds)}",
                began + RUN_LIMIT_S - time.perf_counter()))
            took.append(time.perf_counter() - start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"rounds": rounds, "untraced": untraced}


def median_of(rounds: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def report(workload: str, seed: int, seconds: float, trace: bool,
           measured: dict, spec: dict) -> tuple[dict, dict]:
    """(the result object printed last, the run file: manifest,
    metrics, summary)."""
    from workloads import summarize

    rounds = measured["rounds"]
    reference = json.loads(REFERENCE.read_text()).get(workload)
    attempted = sum(r["attempted"] for r in rounds)
    # a round whose rows differ from the reference fails every config
    failed = sum(r["failed"] if r["digest"] == reference else r["attempted"]
                 for r in rounds)
    values, details = summarize(rounds)
    if trace:
        group = "per_layer"
        values = {m["name"]: statistics.median(
                      r["layers"].get(m["name"], 0) for r in rounds)
                  for m in spec[group]}
        values["trace_overhead_pct"] = 100.0 * (
            median_of(rounds, "measured_s")
            / median_of(measured["untraced"], "measured_s") - 1.0)
    else:
        group = "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[group]}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    run_file = {
        "manifest": {
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "rounds": len(rounds),
            "repro_version": rounds[0]["repro_version"],
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "env": {"removed": [v for v in UNSET_ENV if v in os.environ],
                    "set": {k: v for k, v in
                            child_env(Path("<round>")).items()
                            if k.startswith("REPRO_")
                            or k == "PYTHONHASHSEED"}},
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "metrics": metrics,
        "summary": {
            "reference_digest": reference,
            "digests": [r["digest"] for r in rounds],
            "requests": [r["requests"] for r in rounds],
            "walls_s": [r["wall_s"] for r in rounds],
            "host_factors": [r["host_factor"] for r in rounds],
            # wall-clock figures, before the host-speed correction
            "raw": {key: median_of([r["raw"] for r in rounds], key)
                    for key in rounds[0]["raw"]},
            "details": details,
        },
    }
    return result, run_file


def print_run(result: dict, run_file: dict) -> None:
    manifest, summary = run_file["manifest"], run_file["summary"]
    print(f"== {manifest['workload']} seed={manifest['seed']} "
          f"rounds={manifest['rounds']} requests={summary['requests']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:44s} {metric['value']:>14.6g} {metric['unit']}")
    for key, value in summary["details"].items():
        print(f"  {'(detail) ' + key:44s} {value:>14.6g}")
    for key, value in summary["raw"].items():
        print(f"  {'(wall clock) ' + key:44s} {value:>14.6g}")
    print(f"  host factors {[round(f, 4) for f in summary['host_factors']]}")
    if any(d != summary["reference_digest"] for d in summary["digests"]):
        print(f"  ROW DIGEST MISMATCH: {summary['digests']} != "
              f"{summary['reference_digest']}")
    print(f"  manifest: {json.dumps(manifest, sort_keys=True)}")


def run(workload: str, seed: int, seconds: float, trace: bool,
        spec: dict) -> tuple[dict, dict]:
    """One run: (the result object, the run file)."""
    measured = measure(workload, seed, seconds, trace)
    result, run_file = report(workload, seed, seconds, trace, measured,
                              spec)
    (OUT / f"{workload}.json").write_text(
        json.dumps(run_file, indent=1) + "\n")
    print_run(result, run_file)
    return result, run_file


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------
def round_main(workload: str, seed: int, trace: bool, result_path: str,
               trace_path: str, launched: float) -> int:
    # pinned and sampling from before the imports, which set-up time
    # includes
    with pinned():
        speed = HostSpeed().start()
        import repro
        import workloads
        from tracing import SPAN_FIELDS

        result = workloads.run_round(workload, seed, Path("."), trace=trace,
                                     launched=launched, speed=speed)
    result["repro_version"] = repro.__version__
    spans = result.pop("spans", None)
    if spans is not None:
        Path(trace_path).write_text(json.dumps({
            "workload": workload, "seed": seed, "layers": result["layers"],
            "span_fields": SPAN_FIELDS, "spans": spans}) + "\n")
    Path(result_path).write_text(json.dumps(result) + "\n")
    return 0


# ----------------------------------------------------------------------
# trajectory tooling
# ----------------------------------------------------------------------
def quartiles(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def record_main(args: argparse.Namespace, spec: dict) -> int:
    """Run every workload ``args.runs`` times (seeds 0, 1, ...) plus one
    traced run each, and append the record unless a run failed."""
    names = [w["name"] for w in spec["workloads"]]
    metrics = {w: {"end_to_end": {}, "details": {}} for w in names}
    runs = {w: {"attempted": 0, "failed": 0} for w in names}
    # seeds outer, workloads inner: a slow spell of the host lands on
    # runs of every workload instead of on consecutive runs of one
    for seed in range(args.runs):
        for workload in names:
            result, run_file = run(workload, seed, spec["run_seconds"],
                                   False, spec)
            runs[workload]["attempted"] += result["attempted"]
            runs[workload]["failed"] += result["failed"]
            series = metrics[workload]
            for name, metric in result["metrics"].items():
                series["end_to_end"].setdefault(name, []).append(
                    metric["value"])
            for key, value in run_file["summary"]["details"].items():
                series["details"].setdefault(key, []).append(value)
    for workload in names:
        traced, _ = run(workload, 0, spec["run_seconds"], True, spec)
        runs[workload]["attempted"] += traced["attempted"]
        runs[workload]["failed"] += traced["failed"]
        metrics[workload]["per_layer"] = {
            k: m["value"] for k, m in traced["metrics"].items()}
    failed = {w: n["failed"] for w, n in runs.items() if n["failed"]}
    if failed:
        print(f"bench record: failed configs {failed}; nothing recorded",
              file=sys.stderr)
        return 1
    summary = {
        w: {**runs[w],
            "end_to_end": {k: quartiles(v) for k, v in
                           metrics[w]["end_to_end"].items()},
            "details": {k: quartiles(v) for k, v in
                        metrics[w]["details"].items()}}
        for w in names}
    record = {
        "manifest": {
            "label": args.label, "runs": args.runs,
            "seeds": list(range(args.runs)),
            "run_seconds": spec["run_seconds"],
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(), "machine": platform.machine(),
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "metrics": metrics,
        "summary": summary,
    }
    with open(args.output, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


def last_record(path: str) -> dict:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    return json.loads(lines[-1])


def detail_metric(key: str, spec: dict) -> dict | None:
    """The bound and direction of the run-table detail ``key``: those of
    the end-to-end metric it splits by request kind (``*_per_s`` takes
    ``configs_per_s``'s, ``*_p50_s`` and ``*_p95_s`` the latencies').
    Sample counts are not compared."""
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    for suffix, name in (("_per_s", "configs_per_s"),
                         ("_p50_s", "request_p50_s"),
                         ("_p95_s", "request_p95_s")):
        if key.endswith(suffix):
            return {**e2e[name], "name": key}
    return None


def compare_main(old_path: str, new_path: str, spec: dict) -> int:
    """Exit 1 if a metric got worse than its bound, 2 if a workload of
    ``BENCHMARK.json`` is missing from either record."""
    old, new = last_record(old_path), last_record(new_path)
    names = [w["name"] for w in spec["workloads"]]
    missing = [f"{w} in {path}" for path, rec in ((old_path, old),
                                                  (new_path, new))
               for w in names if w not in rec["metrics"]]
    if missing:
        print(f"bench compare: no record of {', '.join(missing)}",
              file=sys.stderr)
        return 2
    flagged = 0
    print(f"{'workload':14s} {'metric':24s} {'old median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'change':>8s}  verdict")
    for workload in names:
        a_all, b_all = old["metrics"][workload], new["metrics"][workload]
        rows = [(m, a_all["end_to_end"].get(m["name"]),
                 b_all["end_to_end"].get(m["name"]))
                for m in spec["end_to_end"]]
        a_det, b_det = a_all.get("details", {}), b_all.get("details", {})
        for key in sorted(a_det.keys() | b_det.keys()):
            m = detail_metric(key, spec)
            if m is not None:
                rows.append((m, a_det.get(key), b_det.get(key)))
        for m, a, b in rows:
            if not a or not b:
                print(f"{workload:14s} {m['name']:24s} not in the "
                      f"{'old' if not a else 'new'} record")
                continue
            qa, qb = quartiles(a), quartiles(b)
            change = (qb["median"] - qa["median"]) / qa["median"]
            worse = change if m["better"] == "lower" else -change
            if max(qa["spread"], qb["spread"]) > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "WORSE"
                flagged += 1
            else:
                verdict = "ok"
            cell = "{median:.5g} [{q1:.5g}, {q3:.5g}]"
            print(f"{workload:14s} {m['name']:24s} "
                  f"{cell.format(**qa):>34s} {cell.format(**qb):>34s} "
                  f"{100 * change:+7.2f}%  {verdict}")
    return 1 if flagged else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["round"]:
        return round_main(argv[1], int(argv[2]), argv[3] == "1",
                          argv[4], argv[5], float(argv[6]))
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"bench: no program sources at {SOURCE}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if argv[:1] == ["record"]:
        parser = argparse.ArgumentParser(prog="bench.py record")
        parser.add_argument("--runs", type=int, default=10)
        parser.add_argument("--label", default="")
        parser.add_argument("-o", "--output", default=str(TRAJECTORY))
        return record_main(parser.parse_args(argv[1:]), spec)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="bench.py compare")
        parser.add_argument("old")
        parser.add_argument("new")
        args = parser.parse_args(argv[1:])
        return compare_main(args.old, args.new, spec)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    chosen = names if args.workload == "all" else [args.workload]
    results = [run(w, args.seed, args.seconds, bool(args.trace), spec)[0]
               for w in chosen]
    for result in results:
        print(json.dumps(result))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
