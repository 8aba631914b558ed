"""Tests for analysis orchestration: jobs, configs, cache, pre-flight."""

import pytest

from repro.analysis import (
    LintCache,
    analyze_config,
    analyze_job,
    lint_cache_for,
    preflight,
    preflight_enabled,
    set_preflight,
)
from repro.analysis.analyzer import ENV_NO_LINT
from repro.analysis.diagnostics import Diagnostic, DiagnosticReport
from repro.compile import PRESETS
from repro.core.experiment import ExperimentConfig
from repro.core.runner import run_config
from repro.errors import LintError, PlacementError
from repro.kernels import presets
from repro.machine import catalog
from repro.runtime import Job, JobPlacement
from repro.runtime.program import Allreduce, Compute, Recv

KERNELS = {"triad": presets.stream_triad()}


def make_job(program, n_ranks=2):
    cluster = catalog.a64fx()
    return Job(cluster=cluster,
               placement=JobPlacement(cluster, n_ranks, 1),
               kernels=KERNELS, program=program,
               options=PRESETS["kfast"])


def config(**kw):
    base = dict(app="mvmc", dataset="as-is", processor="A64FX",
                n_nodes=1, n_ranks=4, n_threads=12)
    base.update(kw)
    return ExperimentConfig(**base)


class TestAnalyzeJob:
    def test_clean_job(self):
        def program(rank, size):
            yield Compute(kernel="triad", iters=1000)
            yield Allreduce(size_bytes=8)

        report = analyze_job(make_job(program))
        assert report.ok, report.render()

    def test_unknown_kernel_flagged(self):
        def program(rank, size):
            yield Compute(kernel="dgemm", iters=1000)

        report = analyze_job(make_job(program))
        assert report.by_check("unknown-kernel")
        assert "triad" in report.by_check("unknown-kernel")[0].hint

    def test_eager_threshold_comes_from_cluster(self):
        """A sub-threshold cyclic Send ring must not be a deadlock when
        the job's own network would buffer it eagerly."""
        from repro.runtime.program import Send

        def program(rank, size):
            yield Send(dst=(rank + 1) % size, tag=0, size_bytes=64)
            yield Recv(src=(rank - 1) % size, tag=0)

        report = analyze_job(make_job(program, n_ranks=4))
        assert report.ok, report.render()


class TestAnalyzeConfig:
    def test_shipped_config_is_clean(self):
        report = analyze_config(config())
        assert report.ok, report.render()

    def test_unknown_processor(self):
        report = analyze_config(config(processor="EPYC"))
        assert report.by_check("config-processor")

    def test_unknown_app(self):
        report = analyze_config(config(app="hpl"))
        assert report.by_check("config-app")

    def test_infeasible_placement(self):
        report = analyze_config(config(n_ranks=48, n_threads=12))
        diags = report.by_check("placement-infeasible")
        assert diags and diags[0].severity == "error"
        assert diags[0].hint        # actionable

    def test_cache_round_trip(self, tmp_path):
        cache = LintCache(tmp_path)
        report = analyze_config(config(), cache=cache)
        assert report.ok
        assert len(cache) == 1
        # a fresh instance must serve the verdict from disk
        again = LintCache(tmp_path)
        hit = analyze_config(config(), cache=again)
        assert hit.subject == report.subject
        assert hit.diagnostics == report.diagnostics


class TestLintCache:
    def report(self):
        return DiagnosticReport("subj", [Diagnostic(
            check="deadlock", severity="error", message="m",
            rank=1, op_index=2, op="Send(...)", hint="h")])

    def test_put_get_persists(self, tmp_path):
        cache = LintCache(tmp_path)
        cache.put("digest-a", self.report())
        again = LintCache(tmp_path).get("digest-a")
        assert again is not None
        assert again.diagnostics == self.report().diagnostics

    def test_miss_returns_none(self, tmp_path):
        assert LintCache(tmp_path).get("nope") is None

    def test_fingerprint_mismatch_invalidates(self, tmp_path, monkeypatch):
        cache = LintCache(tmp_path)
        cache.put("digest-a", self.report())
        stale = LintCache(tmp_path)
        monkeypatch.setattr(stale, "_fingerprint", "different")
        assert stale.get("digest-a") is None

    def test_clear(self, tmp_path):
        cache = LintCache(tmp_path)
        cache.put("digest-a", self.report())
        cache.clear()
        assert cache.get("digest-a") is None
        assert not cache.path.exists()

    def test_shared_instance_per_directory(self, tmp_path):
        assert lint_cache_for(tmp_path) is lint_cache_for(tmp_path)


class TestPreflight:
    def test_clean_config_passes(self):
        preflight(config())        # must not raise

    def test_bad_config_raises_lint_error(self):
        bad = config(n_ranks=48, n_threads=12)
        with pytest.raises(LintError) as err:
            preflight(bad)
        assert err.value.diagnostics
        assert err.value.diagnostics[0].check == "placement-infeasible"
        assert "--no-lint" in str(err.value)

    def test_verdict_memoized(self):
        bad = config(n_ranks=48, n_threads=12)
        with pytest.raises(LintError):
            preflight(bad)
        with pytest.raises(LintError):    # second hit: cached verdict
            preflight(bad)

    def test_run_config_gates_on_lint(self):
        with pytest.raises(LintError):
            run_config(config(n_ranks=48, n_threads=12))

    def test_no_lint_falls_through_to_runtime_error(self):
        assert preflight_enabled()
        set_preflight(False)
        try:
            assert not preflight_enabled()
            import os
            assert os.environ.get(ENV_NO_LINT)     # travels to workers
            with pytest.raises(PlacementError):
                run_config(config(n_ranks=48, n_threads=12))
        finally:
            set_preflight(True)
        assert preflight_enabled()
