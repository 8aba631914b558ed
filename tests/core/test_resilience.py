"""Resilient sweep execution: retries, crash recovery, strikes, resume.

The acceptance property for resume: a sweep killed mid-run and
restarted with ``resume=True`` produces a SweepResult row-for-row
identical to the uninterrupted run.
"""

import multiprocessing
import os
import time

import pytest

import repro.core.cache as cache_mod
import repro.core.parallel as par
from repro import jsonlog
from repro.core.cache import ResultCache, config_digest
from repro.core.experiment import ExperimentConfig
from repro.core.journal import SweepJournal
from repro.core.parallel import RetryPolicy, SweepError, run_configs
from repro.core.runner import QUARANTINE_AFTER, Row, run_sweep
from repro.errors import ConfigurationError

CONFIGS = [ExperimentConfig(app="ffvc", n_ranks=1, n_threads=t)
           for t in (1, 2, 3, 4)]

#: Placement that cannot fit one node; with the lint gate off the error
#: fires at simulation time, exercising the per-row capture path.
BAD_CONFIG = ExperimentConfig(app="ffvc", n_ranks=2, n_threads=48)

FAST = RetryPolicy(max_attempts=3, backoff_s=0.01, timeout_s=60.0)

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker-patching tests rely on fork inheritance")


@pytest.fixture
def no_lint(monkeypatch):
    """Disable the pre-flight lint gate for this test.

    Patches both the environment (picked up by freshly spawned workers)
    and the analyzer's in-process flag, which is snapshotted at import
    time and therefore unaffected by setenv alone.
    """
    from repro.analysis import analyzer

    monkeypatch.setenv("REPRO_NO_LINT", "1")
    monkeypatch.setattr(analyzer, "_enabled", False)


class TestRetryPolicy:
    def test_defaults_sane(self):
        p = RetryPolicy()
        assert p.max_attempts >= 1 and p.timeout_s > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0)


class TestErrorDiagnostics:
    def test_serial_capture_carries_traceback_and_pid(self, no_lint):
        sweep = run_sweep("diag", [CONFIGS[0], BAD_CONFIG], {},
                          errors="capture")
        assert len(sweep.rows) == 1
        err = sweep.errors[0]
        assert err.error == "PlacementError"
        assert "Traceback (most recent call last)" in err.traceback
        assert err.worker_pid == os.getpid()   # serial path = parent
        assert f"[pid {err.worker_pid}]" in str(err)
        assert err.traceback.rstrip().splitlines()[-1] in err.details()

    @fork_only
    def test_pool_capture_carries_worker_pid(self, no_lint):
        sweep = run_sweep("diag", CONFIGS[:2] + [BAD_CONFIG], {},
                          workers=2, errors="capture")
        err = sweep.errors[0]
        assert err.worker_pid is not None
        assert err.worker_pid != os.getpid()   # raised in a worker
        assert "PlacementError" in err.details()

    def test_details_without_traceback_is_header_only(self):
        err = SweepError(config=CONFIGS[0], error="X", message="boom")
        assert err.details() == str(err)


class _RecordingCache(dict):
    """A memo dict that remembers each row stored in it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.seen = []

    def __setitem__(self, key, row):
        self.seen.append(row.config)
        super().__setitem__(key, row)


class TestOnResultCallback:
    """Every fresh completion is checkpointed, in completion order."""

    def test_fresh_completions_reported_in_completion_order(self):
        cache = _RecordingCache()
        run_configs(CONFIGS[:3], cache=cache)
        assert cache.seen == CONFIGS[:3]

    def test_cache_hits_not_reported(self):
        memo = {}
        run_configs(CONFIGS[:2], cache=memo)
        cache = _RecordingCache(memo)
        run_configs(CONFIGS[:2], cache=cache)
        assert cache.seen == []

    def test_rows_checkpointed_into_cache_at_completion(self, monkeypatch):
        memo = {}
        sizes = []
        real = par._simulate

        def sizing(config):
            sizes.append(len(memo))
            return real(config)

        monkeypatch.setattr(par, "_simulate", sizing)
        run_configs(CONFIGS[:3], cache=memo)
        # each row is cached before the next config starts
        assert sizes == [0, 1, 2] and len(memo) == 3


class TestWorkerCrashRecovery:
    @fork_only
    def test_broken_pool_recovers_all_rows(self, tmp_path, monkeypatch):
        """A worker hard-killed mid-sweep (BrokenProcessPool) loses only
        the pool: the rest of the sweep runs in-process, every row
        identical to the serial run."""
        marker = tmp_path / "crashed-once"
        real = par._simulate

        def flaky(config):
            if config.n_threads == 3 and not marker.exists():
                marker.touch()
                os._exit(42)       # simulate an OOM-killed worker
            return real(config)

        monkeypatch.setattr(par, "_simulate", flaky)
        out = par.run_configs(CONFIGS, workers=2, retry=FAST)
        assert marker.exists()
        assert out == par.run_configs(CONFIGS)

    @fork_only
    def test_persistently_crashing_worker_exhausts_to_serial(
            self, monkeypatch):
        """A config that kills every worker it lands on still yields its
        row: after the first crash nothing is sent to a pool again, and
        the in-process fallback (where the crash does not fire) runs it
        with the real function."""
        real = par._simulate

        def flaky(config):
            # crash only in workers (parent pid differs)
            if config.n_threads == 3 and os.getppid() == parent:
                os._exit(42)
            return real(config)

        parent = os.getpid()
        monkeypatch.setattr(par, "_simulate", flaky)
        out = par.run_configs(CONFIGS, workers=2, retry=FAST)
        assert all(isinstance(o, Row) for o in out)
        assert [o.config for o in out] == CONFIGS

    @fork_only
    def test_stalled_worker_is_recycled_and_sweep_completes(
            self, tmp_path, monkeypatch):
        """A worker that stops making progress trips the per-execution
        watchdog (``RetryPolicy.timeout_s``): the pool is recycled and
        the config retried on a fresh one."""
        attempts = tmp_path / "attempts"
        real = par._simulate

        def stall_once(config):
            if config.n_threads == 3:
                with open(attempts, "a") as fh:
                    fh.write("x")
                if attempts.read_text() == "x":
                    time.sleep(4.0)    # first attempt: a wedged worker
            return real(config)

        monkeypatch.setattr(par, "_simulate", stall_once)
        policy = RetryPolicy(max_attempts=3, backoff_s=0.01, timeout_s=1.0)
        t0 = time.perf_counter()
        out = par.run_configs(CONFIGS, workers=2, retry=policy)
        assert time.perf_counter() - t0 < 4.0   # did not wait out the stall
        assert attempts.read_text() == "xx"     # killed once, retried once
        assert out == par.run_configs(CONFIGS)

    @fork_only
    def test_interrupt_propagates_and_keeps_finished_rows(
            self, tmp_path, monkeypatch):
        """A KeyboardInterrupt during a parallel sweep propagates, and
        every row finished before it stays checkpointed in the cache."""
        real = par._simulate

        def interrupt_last(config):
            if config.n_threads == 4:
                time.sleep(1.0)    # let the other three finish first
                raise KeyboardInterrupt
            return real(config)

        monkeypatch.setattr(par, "_simulate", interrupt_last)
        with pytest.raises(KeyboardInterrupt):
            run_sweep("ki", list(CONFIGS), ResultCache(tmp_path),
                      workers=2)
        survivors = ResultCache(tmp_path)
        assert [c in survivors for c in CONFIGS] == [True] * 3 + [False]


def _row(config):
    return Row(config, 1.0, 2.0, 3.0, 0.1)


class TestJournal:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache[CONFIGS[0]] = _row(CONFIGS[0])
        SweepJournal(cache).record("s", CONFIGS[1], ok=False,
                                   exc=ValueError("boom"))
        j2 = SweepJournal(ResultCache(tmp_path))
        assert j2.status("s", CONFIGS[0])["done"]
        bad = j2.status("s", CONFIGS[1])
        assert bad["fails"] == 1
        assert bad["error"] == "ValueError" and bad["message"] == "boom"
        assert j2.failures("s", CONFIGS[1]) == 1
        assert j2.failures("s", CONFIGS[2]) == 0

    def test_success_clears_strikes(self, tmp_path):
        cache = ResultCache(tmp_path)
        j = SweepJournal(cache)
        j.record("s", CONFIGS[0], ok=False, exc=ValueError("x"))
        j.record("s", CONFIGS[0], ok=False, exc=ValueError("x"))
        cache[CONFIGS[0]] = _row(CONFIGS[0])
        assert SweepJournal(ResultCache(tmp_path)) \
            .failures("s", CONFIGS[0]) == 0

    def test_a_row_clears_strikes_in_every_sweep(self, tmp_path):
        cache = ResultCache(tmp_path)
        j = SweepJournal(cache)
        for sweep in ("a", "b"):
            j.record(sweep, CONFIGS[0], ok=False, exc=ValueError("x"))
        run_sweep("a", [CONFIGS[0]], cache)
        again = SweepJournal(ResultCache(tmp_path))
        assert again.failures("b", CONFIGS[0]) == 0
        assert again.status("b", CONFIGS[0])["done"]

    def test_strikes_are_per_engine(self, tmp_path):
        j = SweepJournal(ResultCache(tmp_path))
        j.record("s", CONFIGS[0], ok=False, exc=ValueError("x"),
                 engine="analytic")
        assert j.failures("s", CONFIGS[0], engine="analytic") == 1
        assert j.failures("s", CONFIGS[0], engine="auto") == 1
        assert j.failures("s", CONFIGS[0]) == 0

    def test_torn_line_tolerated(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache[CONFIGS[0]] = _row(CONFIGS[0])
        with open(cache.path, "a") as fh:
            fh.write('{"format": 1, "sweep": "s"')   # torn
        j2 = SweepJournal(ResultCache(tmp_path))
        assert j2.status("s", CONFIGS[0])["done"]

    def test_strike_without_key_is_torn(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache[CONFIGS[0]] = _row(CONFIGS[0])
        with open(cache.path, "a") as fh:
            fh.write('{"format": 1, "sweep": "s", "error": "X"}\n')
        again = ResultCache(tmp_path)
        j2 = SweepJournal(again)
        assert j2.status("s", CONFIGS[1]) is None
        assert j2.status("s", CONFIGS[0])["done"]
        assert again.torn_lines == 1

    def test_sweeps_are_namespaced(self, tmp_path):
        j = SweepJournal(ResultCache(tmp_path))
        j.record("a", CONFIGS[0], ok=False, exc=ValueError("x"))
        assert j.failures("b", CONFIGS[0]) == 0

    def test_for_cache_needs_directory(self, tmp_path):
        assert SweepJournal.for_cache({}) is None
        assert SweepJournal.for_cache(None) is None
        cache = ResultCache(tmp_path)
        j = SweepJournal.for_cache(cache)
        assert j is not None and j.cache is cache


class TestJournalReads:
    """A write never reads the log for strikes; a quarantine query reads
    it once, as the file stands, whoever appended to it."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """Paths of cache logs read through :mod:`repro.jsonlog`."""
        seen = []
        real = cache_mod.jsonlog.read

        def counting(path, fmt):
            if os.path.basename(path) == ResultCache.FILENAME:
                seen.append(path)
            return real(path, fmt)

        monkeypatch.setattr(cache_mod.jsonlog, "read", counting)
        return seen

    def test_write_sweeps_never_read_and_resume_reads_once(self, tmp_path,
                                                          reads):
        cache = ResultCache(tmp_path)
        for threads in range(1, 21):
            config = ExperimentConfig(app="ffvc", n_ranks=1,
                                      n_threads=threads)
            run_sweep("w", [config], cache, engine="analytic")
        assert cache.misses == 20
        # one append per completion: its row
        assert len(cache.path.read_bytes().splitlines()) == 20
        assert len(reads) == 1  # the rows, loaded at the first lookup

        resumed = run_sweep("w", list(CONFIGS), cache, engine="analytic",
                            resume=True)
        assert resumed.errors == [] and len(reads) == 2
        # a fresh cache's first quarantine query loads its rows too
        run_sweep("w", list(CONFIGS), ResultCache(tmp_path),
                  engine="analytic", resume=True)
        assert len(reads) == 3

    def test_records_after_a_query_update_the_loaded_state(self, tmp_path,
                                                          reads):
        cache = ResultCache(tmp_path)
        j = SweepJournal(cache)
        assert j.failures("s", CONFIGS[0]) == 0
        j.record("s", CONFIGS[0], ok=False, exc=ValueError("x"))
        assert j.failures("s", CONFIGS[0]) == 1
        cache[CONFIGS[0]] = _row(CONFIGS[0])
        assert j.status("s", CONFIGS[0])["done"]
        assert len(reads) == 1

    def test_other_instances_appends_quarantine_and_clear(self, tmp_path,
                                                         no_lint):
        first = ResultCache(tmp_path)
        run_sweep("q", list(CONFIGS), first)
        second = ResultCache(tmp_path)
        for _ in range(QUARANTINE_AFTER):
            failed = run_sweep("q", [BAD_CONFIG], second, errors="capture")
            assert "quarantined" not in failed.errors[0].message

        sweep = run_sweep("q", CONFIGS + [BAD_CONFIG], first,
                          errors="capture", resume=True)
        assert len(sweep.rows) == len(CONFIGS)
        [err] = sweep.errors
        assert err.config == BAD_CONFIG
        assert "quarantined" in err.message

        second[BAD_CONFIG] = _row(BAD_CONFIG)
        assert SweepJournal.for_cache(first).failures("q", BAD_CONFIG) == 0
        retried = run_sweep("q", [BAD_CONFIG], first, errors="capture",
                            resume=True)
        assert "quarantined" not in retried.errors[0].message


class _InterruptNth:
    """Raise KeyboardInterrupt when the Nth fresh config starts."""

    def __init__(self, real, n):
        self.real, self.n, self.count = real, n, 0

    def __call__(self, config):
        self.count += 1
        if self.count == self.n:
            raise KeyboardInterrupt
        return self.real(config)


class TestResume:
    def test_resume_requires_persistent_cache(self):
        with pytest.raises(ConfigurationError):
            run_sweep("r", CONFIGS, {}, resume=True)
        with pytest.raises(ConfigurationError):
            run_sweep("r", CONFIGS, None, resume=True)

    def test_killed_sweep_resumes_row_identical(self, tmp_path,
                                                monkeypatch):
        """The acceptance criterion: interrupt after 2 of 4 configs,
        restart with resume=True, get the uninterrupted result."""
        reference = run_sweep("ref", list(CONFIGS), {})

        cache = ResultCache(tmp_path)
        monkeypatch.setattr(par, "_simulate",
                            _InterruptNth(par._simulate, 3))
        with pytest.raises(KeyboardInterrupt):
            run_sweep("f1x", list(CONFIGS), cache)
        monkeypatch.undo()

        # the two finished rows were checkpointed before the kill
        survivors = ResultCache(tmp_path)
        assert sum(c in survivors for c in CONFIGS) == 2

        resumed = run_sweep("f1x", list(CONFIGS), ResultCache(tmp_path),
                            resume=True)
        assert [r.config for r in resumed.rows] \
            == [r.config for r in reference.rows]
        assert [r.elapsed for r in resumed.rows] \
            == [r.elapsed for r in reference.rows]
        assert resumed.errors == []

    def test_repeat_failures_quarantined_on_resume(self, tmp_path):
        cache = ResultCache(tmp_path)
        journal = SweepJournal.for_cache(cache)
        bad = CONFIGS[1]
        for _ in range(QUARANTINE_AFTER):
            journal.record("q", bad, ok=False,
                           exc=RuntimeError("kernel exploded"))

        sweep = run_sweep("q", list(CONFIGS), cache, resume=True)
        assert len(sweep.rows) == len(CONFIGS) - 1
        assert bad not in [r.config for r in sweep.rows]
        [err] = sweep.errors
        assert err.config == bad
        assert err.attempts == QUARANTINE_AFTER
        assert "quarantined" in err.message

    def test_below_threshold_failures_retry_on_resume(self, tmp_path):
        cache = ResultCache(tmp_path)
        journal = SweepJournal.for_cache(cache)
        journal.record("q", CONFIGS[1], ok=False, exc=RuntimeError("once"))

        sweep = run_sweep("q", list(CONFIGS), cache, resume=True)
        assert len(sweep.rows) == len(CONFIGS)
        assert sweep.errors == []

    def test_journal_written_alongside_persistent_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep("jz", CONFIGS[:2], cache)
        journal = SweepJournal.for_cache(ResultCache(tmp_path))
        assert [p.name for p in tmp_path.iterdir()] == [cache.FILENAME]
        for config in CONFIGS[:2]:
            assert journal.status("jz", config)["done"]

    def test_plain_dict_cache_writes_no_journal(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "unused"))
        run_sweep("nz", CONFIGS[:1], {})
        assert not (tmp_path / "unused").exists()


class TestFigurePassthrough:
    def test_f1_resume_quarantine_blanks_cell(self, tmp_path):
        """A quarantined grid point must blank its table cell, not shift
        the row."""
        from repro.core.figures import f1_mpi_omp_sweep

        cache = ResultCache(tmp_path)
        grid = [(1, 1), (1, 2)]
        bad = ExperimentConfig(app="ffvc", n_ranks=1, n_threads=2)
        journal = SweepJournal.for_cache(cache)
        for _ in range(QUARANTINE_AFTER):
            journal.record("f1-ffvc", bad, ok=False,
                           exc=RuntimeError("boom"))

        table, sweeps = f1_mpi_omp_sweep(
            apps=["ffvc"], configs=grid, cache=cache, resume=True)
        assert len(sweeps["ffvc"].rows) == 1
        assert len(sweeps["ffvc"].errors) == 1
        # the rendered row keeps both columns (nan cell, not a shift)
        assert len(table.rows[0]) == 1 + len(grid)


class TestOneStore:
    """A cache directory holds one store, ``results.jsonl``: a completion
    is one append to it, and the files older builds kept beside it are
    ignored."""

    @pytest.fixture
    def appends(self, monkeypatch, tmp_path):
        """Names of the files under ``tmp_path`` each append went to."""
        seen = []
        real = jsonlog.append

        def counting(path, record, **kwargs):
            if tmp_path in path.parents:
                seen.append(path.name)
            return real(path, record, **kwargs)

        monkeypatch.setattr(jsonlog, "append", counting)
        return seen

    def test_a_completion_is_one_append(self, tmp_path, appends, no_lint):
        cache = ResultCache(tmp_path)
        run_sweep("one", [CONFIGS[0]], cache)
        assert appends == [cache.FILENAME]
        run_sweep("one", [BAD_CONFIG], cache, errors="capture")
        assert appends == [cache.FILENAME] * 2

    def test_sweeps_resume_lint_and_advise_keep_one_file(self, tmp_path,
                                                         capsys):
        from repro.cli import main

        cache = ResultCache(tmp_path)
        run_sweep("s", list(CONFIGS), cache, advise="warn")
        run_sweep("s", list(CONFIGS), ResultCache(tmp_path), resume=True)
        for cmd in ("lint", "advise"):
            main([cmd, "ffvc", "--ranks", "1", "--threads", "4",
                  "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        assert [p.name for p in tmp_path.iterdir()] == [cache.FILENAME]

    def test_old_journal_and_lint_files_are_ignored(self, tmp_path):
        from repro.analysis import analyze_config
        from repro.analysis.rules import analyzer_fingerprint
        from repro.core.cache import model_fingerprint

        bad = CONFIGS[1]
        strike = {"format": 1, "sweep": "q", "key": config_digest(bad),
                  "status": "failed", "error": "RuntimeError",
                  "message": "boom"}
        for _ in range(2):
            jsonlog.append(tmp_path / "sweep-journal.jsonl", strike)
        jsonlog.append(tmp_path / "lint.jsonl", {
            "format": 1, "fp": model_fingerprint(),
            "analyzer": analyzer_fingerprint(), "key": config_digest(bad),
            "report": {"subject": "old", "diagnostics": [
                {"check": "deadlock", "severity": "error",
                 "message": "stale"}]}})

        cache = ResultCache(tmp_path)
        sweep = run_sweep("q", list(CONFIGS), cache, resume=True)
        assert sweep.errors == [] and len(sweep.rows) == len(CONFIGS)
        assert analyze_config(bad, cache=cache).ok
        assert cache.torn_lines == 0
