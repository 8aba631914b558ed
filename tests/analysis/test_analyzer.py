"""Tests for analysis orchestration: jobs, configs, cache, pre-flight."""

import pytest

from repro.analysis import (
    analyze_config,
    analyze_job,
    preflight,
    preflight_enabled,
    set_preflight,
)
from repro.analysis import analyzer
from repro.analysis.analyzer import ENV_NO_LINT
from repro.analysis.diagnostics import Diagnostic, DiagnosticReport
from repro.compile import PRESETS
from repro.core.cache import ResultCache
from repro.core.experiment import ExperimentConfig
from repro.core.runner import run_config
from repro.errors import LintError, PlacementError
from repro.kernels import presets
from repro.machine import catalog
from repro.runtime import Job, JobPlacement
from repro.runtime.affinity import ProcessAllocation, ThreadBinding
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

    def test_unknown_kernel_on_a_middle_rank(self):
        """Only rank 1 of 4 names an unregistered kernel: the runtime
        would fail mid-run, so lint must see every rank, not just the
        first and the last."""
        def program(rank, size):
            yield Compute(kernel="dgemm" if rank == 1 else "triad",
                          iters=1000)
            yield Allreduce(size_bytes=8)

        report = analyze_job(make_job(program, n_ranks=4))
        found = report.by_check("unknown-kernel")
        assert [(d.rank, d.op_index) for d in found] == [(1, 0)]
        assert "'dgemm'" in found[0].message

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
        cache = ResultCache(tmp_path)
        report = analyze_config(config(), cache=cache)
        assert report.ok
        assert cache.verdict(config()) is report
        # a fresh instance must serve the verdict from disk
        again = ResultCache(tmp_path)
        hit = analyze_config(config(), cache=again)
        assert hit.subject == report.subject
        assert hit.diagnostics == report.diagnostics


class TestLintCache:
    """Verdicts as records of the result cache's log."""

    def report(self):
        return DiagnosticReport("subj", [Diagnostic(
            check="deadlock", severity="error", message="m",
            rank=1, op_index=2, op="Send(...)", hint="h")])

    def test_put_get_persists(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_verdict(config(), self.report())
        again = ResultCache(tmp_path).verdict(config())
        assert again is not None
        assert again.diagnostics == self.report().diagnostics

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).verdict(config()) is None

    def test_fingerprint_mismatch_invalidates(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        cache.put_verdict(config(), self.report())
        stale = ResultCache(tmp_path)
        monkeypatch.setattr(stale, "_fingerprint", "different")
        assert stale.verdict(config()) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_verdict(config(), self.report())
        cache.clear()
        assert cache.verdict(config()) is None
        assert not cache.path.exists()

    def test_verdicts_and_rows_do_not_alias(self, tmp_path):
        cache = ResultCache(tmp_path)
        row = run_config(config(), cache)
        cache.put_verdict(config(), self.report())
        again = ResultCache(tmp_path)
        assert again.get(config()) == row and len(again) == 1
        assert again.verdict(config()).diagnostics \
            == self.report().diagnostics

    def test_undecodable_verdict_is_torn(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_verdict(config(), self.report())
        line = cache.path.read_text().replace('"severity":"error"',
                                              '"severity":"loud"')
        cache.path.write_text(line)
        again = ResultCache(tmp_path)
        assert again.verdict(config()) is None and again.torn_lines == 1


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


class TestShapeMemo:
    """The program analysis is memoized per program shape: app functions,
    dataset, rank count, eager threshold and analyzer."""

    @pytest.fixture(autouse=True)
    def fresh_memos(self):
        analyzer.clear_memos()
        yield
        analyzer.clear_memos()

    @pytest.fixture
    def job_analyses(self, monkeypatch):
        calls = []
        real = analyzer.analyze_job

        def counting(job, *args, **kwargs):
            calls.append(job.placement.n_ranks)
            return real(job, *args, **kwargs)

        monkeypatch.setattr(analyzer, "analyze_job", counting)
        return calls

    def test_placement_and_options_share_one_analysis(self, job_analyses):
        variants = [
            config(),
            config(n_threads=6),
            config(binding=ThreadBinding("stride", 2)),
            config(allocation=ProcessAllocation("cyclic")),
            config(options_preset="tuned"),
            config(data_policy="serial-init"),
        ]
        for variant in variants:
            assert analyze_config(variant).ok
        assert job_analyses == [4]

    def test_config_findings_stay_per_config(self, job_analyses):
        assert analyze_config(config()).ok
        assert analyze_config(config(n_threads=48)).by_check(
            "placement-infeasible")
        assert analyze_config(config(data_policy="interleave")).by_check(
            "config-job")
        assert job_analyses == [4]

    def test_shape_terms_each_cost_an_analysis(self, job_analyses):
        for variant in (config(), config(n_ranks=2),
                        config(dataset="large"), config(app="ngsa"),
                        config(processor="ThunderX2", n_threads=8)):
            assert analyze_config(variant).ok
        assert len(job_analyses) == 5

    def test_memo_is_bounded_and_cleared(self, monkeypatch):
        monkeypatch.setattr(analyzer, "MEMO_SIZE", 2)
        for n_ranks in (1, 2, 4):
            preflight(config(n_ranks=n_ranks, n_threads=12))
        assert len(analyzer._shapes) == 2
        assert len(analyzer._verdicts) == 2
        analyzer.clear_memos()
        assert not analyzer._shapes and not analyzer._verdicts

    def test_patched_program_is_not_served_a_stale_verdict(self,
                                                           monkeypatch):
        from repro.miniapps import by_name

        app = by_name("mvmc")
        clean = config()
        assert analyze_config(clean).ok
        preflight(clean)
        real = app.make_program

        def seeded_bug(dataset, n_ranks):
            program = real(dataset, n_ranks)

            def buggy(rank, size):
                if rank == size - 1:
                    yield Recv(src=0, tag=999)      # never sent
                yield from program(rank, size)

            return buggy

        monkeypatch.setattr(app, "make_program", seeded_bug)
        report = analyze_config(clean)
        assert report.by_check("p2p-unmatched-recv"), report.render()
        with pytest.raises(LintError):
            preflight(config(n_threads=6))      # same shape, new config

    def test_preflight_digests_the_config_once(self, monkeypatch):
        import repro.core.cache as core_cache

        calls = []
        real = core_cache.config_digest

        def counting(cfg):
            calls.append(cfg)
            return real(cfg)

        monkeypatch.setattr(core_cache, "config_digest", counting)
        preflight(config())
        assert len(calls) == 1
