"""Tests for the CLI's result-cache surface.

Covers the ``idio-repro cache`` subcommand (stats / verify / gc), the
``--cache-dir`` / ``--no-cache`` flags threaded through the sweep
commands, and the ``[cache: ...]`` traffic trailer.
"""

import pytest

from repro.cache import ResultCache
from repro.cli import build_parser, main

COMPARE_SMALL = [
    "compare", "--policies", "ddio,idio", "--ring", "32", "--rate", "50",
]


class TestCacheParser:
    def test_cache_subcommands_parse(self):
        args = build_parser().parse_args(["cache", "stats"])
        assert (args.command, args.cache_command) == ("cache", "stats")
        args = build_parser().parse_args(
            ["cache", "verify", "--sample", "3", "--checked", "--no-evict"]
        )
        assert args.sample == 3 and args.checked and args.no_evict
        args = build_parser().parse_args(
            ["cache", "gc", "--max-bytes", "1000", "--max-age-days", "7"]
        )
        assert args.max_bytes == 1000 and args.max_age_days == 7.0

    def test_cache_dir_flag_on_nested_subcommands(self, tmp_path):
        args = build_parser().parse_args(
            ["cache", "stats", "--cache-dir", str(tmp_path)]
        )
        assert args.cache_dir == str(tmp_path)

    def test_sweep_commands_take_cache_flags(self):
        for cmd in (["compare"], ["figure", "fig13"], ["faults"], ["rack"]):
            args = build_parser().parse_args(
                cmd + ["--cache-dir", "/tmp/x", "--no-cache"]
            )
            assert args.cache_dir == "/tmp/x" and args.no_cache


class TestCacheFlagsOnSweeps:
    def test_compare_warm_run_hits_cache(self, tmp_path, capsys):
        flags = ["--cache-dir", str(tmp_path)]
        assert main(COMPARE_SMALL + flags) == 0
        cold = capsys.readouterr().out
        assert "[cache:" in cold and "2 stores" in cold
        assert main(COMPARE_SMALL + flags) == 0
        warm = capsys.readouterr().out
        assert "2 hits" in warm and "0 stores" in warm

    def test_no_cache_forces_live_runs(self, tmp_path, capsys):
        flags = ["--cache-dir", str(tmp_path)]
        assert main(COMPARE_SMALL + flags) == 0
        capsys.readouterr()
        assert main(COMPARE_SMALL + flags + ["--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "[cache:" not in out
        # Nothing new was stored by the --no-cache run.
        assert ResultCache(tmp_path).stats()["entries"] == 2

    def test_without_flags_no_cache_trailer(self, capsys):
        assert main(COMPARE_SMALL) == 0
        assert "[cache:" not in capsys.readouterr().out


@pytest.fixture()
def populated(tmp_path, capsys):
    assert main(COMPARE_SMALL + ["--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    return tmp_path


class TestCacheCommand:
    def test_stats(self, populated, capsys):
        assert main(["cache", "stats", "--cache-dir", str(populated)]) == 0
        out = capsys.readouterr().out
        assert "entries:     2" in out
        assert str(populated) in out

    def test_verify_clean(self, populated, capsys):
        assert main(["cache", "verify", "--cache-dir", str(populated)]) == 0
        out = capsys.readouterr().out
        assert "verified 2/2 entries: 2 ok" in out

    def test_verify_detects_corruption(self, populated, capsys):
        victim = next(populated.glob("*/*.pkl"))
        victim.write_bytes(b"garbage")
        assert main(["cache", "verify", "--cache-dir", str(populated)]) == 1
        out = capsys.readouterr().out
        assert "corrupt" in out
        assert not victim.exists()  # evicted
        # A second verify over the survivors is clean again.
        assert main(["cache", "verify", "--cache-dir", str(populated)]) == 0

    def test_gc_budget(self, populated, capsys):
        assert main(
            ["cache", "gc", "--max-bytes", "1", "--cache-dir", str(populated)]
        ) == 0
        out = capsys.readouterr().out
        assert "2 -> 0 entries" in out and "2 over budget" in out
        assert list(populated.glob("*/*.pkl")) == []
