"""Tests for the ``faults`` CLI subcommand and the shared flag vocabulary."""

import json

import pytest

from repro.cli import build_parser, main


class TestSharedFlags:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        import repro

        assert repro.__version__ in out

    def test_workload_alias_for_app(self):
        parser = build_parser()
        assert parser.parse_args(["run", "--workload", "l2fwd"]).app == "l2fwd"
        assert parser.parse_args(["run", "--app", "l2fwd"]).app == "l2fwd"

    def test_seed_flag_shared_across_subcommands(self):
        parser = build_parser()
        for argv in (["run", "--seed", "7"], ["faults", "--seed", "7"],
                     ["compare", "--seed", "7"]):
            assert parser.parse_args(argv).seed == 7

    def test_faults_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.policies == ["ddio", "idio"]
        assert args.layers == ["nic", "pcie", "mem", "cpu"]
        assert args.intensities == [0.0, 0.5, 1.0]
        assert args.retries == 1


class TestFaultsCommand:
    def run_quick(self, capsys, tmp_path, *extra):
        out = tmp_path / "manifest.json"
        rc = main([
            "faults", "--quick", "--jobs", "1",
            "--policies", "ddio",
            "--layers", "nic",
            "--intensities", "0,1",
            "--out", str(out),
            *extra,
        ])
        return rc, capsys.readouterr().out, out

    def test_quick_matrix_runs_and_writes_manifest(self, capsys, tmp_path):
        rc, out, manifest_path = self.run_quick(capsys, tmp_path)
        assert rc == 0
        # One baseline row + one faulted row.
        assert "degradation matrix" in out
        assert "none" in out and "nic" in out
        assert "[2 cells: ok=2]" in out
        manifest = json.loads(manifest_path.read_text())
        assert manifest["total"] == 2
        assert manifest["exit_code"] == 0
        assert manifest["failures"] == []

    def test_checked_quick_matrix_passes_sanitizer(self, capsys, tmp_path):
        rc, out, _ = self.run_quick(capsys, tmp_path, "--checked")
        assert rc == 0

    @pytest.mark.parametrize("argv", [
        ["faults", "--layers", "disk"],
        ["faults", "--intensities", "high"],
        ["faults", "--policies", ""],
    ])
    def test_bad_inputs_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err

    def test_faulted_cell_reports_injections(self, capsys, tmp_path):
        rc, out, _ = self.run_quick(capsys, tmp_path)
        assert rc == 0
        faulted_rows = [
            line for line in out.splitlines()
            if " nic " in f" {line} " and "ok" in line
        ]
        assert faulted_rows, out
