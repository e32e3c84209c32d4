"""Tests for the idio-repro command-line interface."""

import json

import pytest

from repro.cli import FIGURE_COMMANDS, build_parser, main


class TestParser:
    def test_all_subcommands_exist(self):
        parser = build_parser()
        for argv in (
            ["list"],
            ["run", "--policy", "idio"],
            ["compare", "--policies", "ddio,idio"],
            ["figure", "fig9"],
            ["trace", "--out", "t.json"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    @pytest.mark.parametrize("command", [
        ["compare", "--policies", "ddio"],
        ["figure", "fig9"],
        ["validate"],
    ])
    @pytest.mark.parametrize("jobs", ["0", "-1", "-4", "zero"])
    def test_invalid_jobs_rejected(self, command, jobs, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(command + ["--jobs", jobs])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "positive integer" in err or "expected an integer" in err

    def test_valid_jobs_accepted(self):
        args = build_parser().parse_args(["figure", "fig9", "--jobs", "4"])
        assert args.jobs == 4

    def test_figure_choices_cover_all_paper_figures(self):
        for fig in ("fig4", "fig5", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14"):
            assert fig in FIGURE_COMMANDS

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestBadSweepInput:
    """A bad flag value fails in parsing: one stderr line, exit 2."""

    @pytest.mark.parametrize("argv", [
        ["run", "--policy", "bogus"],
        ["compare", "--policies", "ddio,bogus"],
        ["faults", "--policies", "bogus"],
        ["tenants", "--policies", "bogus"],
        ["faults", "--intensities=0,-1"],
        ["tenants", "--intensities=-1"],
        ["faults", "--tenants", "-1"],
        ["run", "--rate", "-5"],
        ["compare", "--ring", "0"],
        ["tenants", "--tenants", "1"],
        ["tenants", "--tenants", "0"],
        ["faults", "--tenants", "1"],
        ["faults", "--retries", "-1"],
        ["faults", "--timeout-s", "0"],
        ["faults", "--timeout-s", "-5"],
        ["trace", "--ring", "0"],
        ["trace", "--rate", "-5"],
    ], ids=" ".join)
    def test_rejected_in_one_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        flag = argv[1].split("=")[0]
        assert lines[0].startswith(f"idio-repro {argv[0]}: error: argument {flag}")

    def test_parsed_lists(self):
        args = build_parser().parse_args(
            ["tenants", "--policies", "ddio, ioca", "--intensities", "0.5,2"]
        )
        assert args.policies == ["ddio", "ioca"]
        assert args.intensities == [0.5, 2.0]


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "idio" in out and "touchdrop" in out and "fig9" in out

    def test_run_small(self, capsys):
        rc = main(["run", "--policy", "ddio", "--ring", "32", "--rate", "50"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MLC WB" in out

    def test_run_with_timelines(self, capsys):
        rc = main(
            ["run", "--policy", "ddio", "--ring", "32", "--rate", "50", "--timelines"]
        )
        assert rc == 0
        assert "pcie_writes" in capsys.readouterr().out

    def test_run_csv_stdout(self, capsys):
        rc = main(["run", "--policy", "ddio", "--ring", "32", "--csv", "-"])
        assert rc == 0
        assert "time_us," in capsys.readouterr().out

    def test_run_csv_file(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        rc = main(["run", "--policy", "ddio", "--ring", "32", "--csv", str(path)])
        assert rc == 0
        assert path.exists()

    def test_compare(self, capsys):
        rc = main(
            ["compare", "--policies", "ddio,invalidate", "--ring", "32", "--rate", "50"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "ddio" in out and "invalidate" in out

    def test_compare_empty_policies(self, capsys):
        assert main(["compare", "--policies", ","]) == 2

    def test_figure_quick_args_cover_every_figure(self):
        from repro.cli import FIGURE_QUICK_ARGS

        assert set(FIGURE_QUICK_ARGS) == set(FIGURE_COMMANDS)

    def test_figure_quick_run(self, capsys, tmp_path):
        out = tmp_path / "fig13.txt"
        rc = main(["figure", "fig13", "--quick", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert "Fig. 13" in out.read_text()

    def test_trace_export(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        rc = main(["trace", "--out", str(path), "--ring", "64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace events" in out
        doc = json.loads(path.read_text())
        cats = doc["otherData"]["category_counts"]
        for category in (
            "ddio-fill",
            "mlc-steer-fill",
            "direct-dram-write",
            "invalidate-drop",
        ):
            assert cats.get(category, 0) > 0, category

    def test_trace_invalid_max_events_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--max-events", "0"])

    def test_steady_traffic_run(self, capsys):
        rc = main(
            [
                "run",
                "--policy", "ddio",
                "--ring", "32",
                "--traffic", "steady",
                "--rate", "5",
                "--duration-us", "100",
            ]
        )
        assert rc == 0
