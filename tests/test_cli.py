"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--app", "ffvc"])
        assert args.processor == "A64FX"
        assert args.ranks == 4 and args.threads == 12

    def test_invalid_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--app", "hpl"])

    def test_invalid_processor_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--app", "ffvc", "--processor", "EPYC"])


class TestCommands:
    def test_list_apps(self, capsys):
        assert main(["list-apps"]) == 0
        out = capsys.readouterr().out
        assert "ccs-qcd" in out and "ntchem" in out

    def test_list_processors(self, capsys):
        assert main(["list-processors"]) == 0
        out = capsys.readouterr().out
        assert "A64FX" in out and "Tofu-D" in out

    def test_run_prints_report(self, capsys):
        rc = main(["run", "--app", "ffvc", "--ranks", "2",
                   "--threads", "4", "--breakdown"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "elapsed" in out and "compute" in out

    def test_run_with_stride_and_policy(self, capsys):
        rc = main(["run", "--app", "ffvc", "--ranks", "1", "--threads", "8",
                   "--stride", "12", "--data-policy", "serial-init"])
        assert rc == 0
        assert "stride-12" in capsys.readouterr().out

    def test_run_error_names_the_config_the_flags_describe(self, capsys):
        rc = main(["run", "--app", "mvmc", "--ranks", "8", "--threads", "12",
                   "--stride", "2", "--allocation", "cyclic", "--no-cache"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: mvmc/as-is A64FX 8x12 stride-2 cyclic [pid ")
        assert "PlacementError: 96 threads exceed the cluster's 48 cores" \
            in err

    def test_run_error_without_a_config_names_the_shape(self, capsys):
        rc = main(["run", "--app", "mvmc", "--stride", "0", "--options",
                   "tuned", "--no-cache"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: mvmc/as-is A64FX 4x12 [pid ")
        assert "ConfigurationError: stride must be positive" in err

    @pytest.mark.parametrize("flags, shape", [
        (["--ranks", "0"], "0x12"), (["--threads", "0"], "4x0"),
        (["--nodes", "0"], "4x12 0nodes")])
    def test_run_error_of_zero_counts_is_one_error(self, capsys, flags,
                                                   shape):
        rc = main(["run", "--app", "ffvc", *flags, "--no-cache"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ffvc/as-is A64FX {shape} [pid ")
        assert err.count("error:") == 1 and err.count("Traceback") == 1
        assert err.rstrip().endswith(
            "ConfigurationError: counts must be positive")

    def test_figure_t1(self, capsys):
        assert main(["figure", "t1"]) == 0
        assert "A64FX" in capsys.readouterr().out

    def test_figure_csv(self, capsys):
        assert main(["figure", "t2", "--csv"]) == 0
        out = capsys.readouterr().out
        assert "miniapp,full name" in out

    def test_figure_unknown_id(self, capsys):
        from repro.artifacts import ARTIFACTS

        assert main(["figure", "zz"]) == 2
        err = capsys.readouterr().err
        assert "unknown figure" in err
        assert err.rstrip().endswith(
            ", ".join(a.id.lower() for a in ARTIFACTS))

    @pytest.mark.parametrize("argv", [
        ["figure", "f2", "--engine", "analytic"],
        ["figure", "t1", "--engine", "auto"],
        ["report", "--quick", "--engine", "analytic"],
    ])
    def test_engine_an_artifact_cannot_take_is_an_error(
            self, argv, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # where `report` writes REPORT.md
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not any(tmp_path.iterdir())
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "event engine only" in captured.err

    def test_roofline(self, capsys):
        assert main(["roofline", "--app", "ntchem"]) == 0
        out = capsys.readouterr().out
        assert "dgemm" in out

    def test_energy(self, capsys):
        assert main(["energy", "--app", "ffvc", "--ranks", "2",
                     "--threads", "4"]) == 0
        out = capsys.readouterr().out
        assert "eco" in out and "GF/W" in out


class TestLintCommand:
    def test_lint_single_placement_clean(self, capsys):
        rc = main(["lint", "ffvc", "--ranks", "4", "--threads", "12",
                   "--no-cache"])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_grid_covers_corners(self, capsys):
        rc = main(["lint", "mvmc", "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1x48" in out and "4x12" in out and "48x1" in out

    def test_lint_reports_infeasible_placement(self, capsys):
        rc = main(["lint", "ffvc", "--ranks", "48", "--threads", "12",
                   "--no-cache"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "placement-infeasible" in captured.out
        assert "error" in captured.err

    def test_lint_uses_cache_dir(self, tmp_path, capsys):
        rc = main(["lint", "mvmc", "--ranks", "4", "--threads", "12",
                   "--cache-dir", str(tmp_path)])
        assert rc == 0
        # verdicts are records of the result cache's log
        assert [p.name for p in tmp_path.iterdir()] == ["results.jsonl"]

    def test_no_lint_flag_disables_preflight(self):
        from repro.analysis import preflight_enabled, set_preflight

        try:
            assert main(["run", "--app", "mvmc", "--ranks", "2",
                         "--threads", "2", "--no-cache",
                         "--no-lint"]) == 0
            assert not preflight_enabled()
        finally:
            set_preflight(True)
