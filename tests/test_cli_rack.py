"""Tests for the ``idio-repro rack`` subcommand."""

import json

import pytest

from repro.cli import build_parser, main


class TestRackParser:
    def test_defaults(self):
        args = build_parser().parse_args(["rack"])
        assert args.command == "rack"
        assert args.servers == 4
        assert args.flows == 8192
        assert args.steering == "rss"
        assert args.profile == "heavytail"
        assert args.jobs == 1

    def test_invalid_steering_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["rack", "--steering", "toeplitz"])

    def test_invalid_servers_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["rack", "--servers", "0"])


RACK_SMALL = [
    "rack", "--servers", "2", "--flows", "256",
    "--rate", "20", "--duration-us", "50",
]


class TestRackCommand:
    def test_runs_and_prints_table(self, capsys):
        assert main(RACK_SMALL) == 0
        out = capsys.readouterr().out
        assert "s00" in out and "s01" in out
        assert "rack fingerprint:" in out

    def test_jobs_sharded_matches_serial(self, capsys):
        def fingerprint(extra):
            assert main(RACK_SMALL + extra) == 0
            out = capsys.readouterr().out
            line = next(
                l for l in out.splitlines() if l.startswith("rack fingerprint:")
            )
            return line.split(":", 1)[1].strip()

        assert fingerprint([]) == fingerprint(["--jobs", "2"])

    def test_out_writes_summary_json(self, tmp_path, capsys):
        out = tmp_path / "rack.json"
        assert main(RACK_SMALL + ["--out", str(out)]) == 0
        blob = json.loads(out.read_text())
        assert blob["num_servers"] == 2
        assert blob["axes"] == ["server"]
        assert [cell["server"] for cell in blob["cells"]] == [0, 1]
        assert set(blob["cells"][0]) == {
            "server", "status", "cached", "digest", "name", "flows",
            "offered", "rx", "drops", "completed", "percentiles_us",
        }
        assert sum(c["completed"] for c in blob["cells"]) == blob["aggregate"]["completed"]

    def test_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(RACK_SMALL + ["--trace-out", str(out)]) == 0
        blob = json.loads(out.read_text())
        assert blob["traceEvents"]

    def test_checked_and_policy(self, capsys):
        assert main(RACK_SMALL + ["--checked", "--policy", "idio"]) == 0
        out = capsys.readouterr().out
        assert "idio" in out
