"""BENCHMARK.json follows the benchmark contract and matches bench/."""

import json
import re

import bench
from bench import catalogue
from bench.workloads import WORKLOADS

SPEC_PATH = bench.ROOT / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def _spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def test_top_level_shape() -> None:
    assert SPEC_PATH.stat().st_size <= 64 * 1024
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(spec["command"]) <= 32
    assert all(isinstance(arg, str) and len(arg) <= 200 for arg in spec["command"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path.split("/")
        files = [p for p in (bench.ROOT / path).rglob("*") if "__pycache__" not in p.parts]
        assert all(not p.is_symlink() for p in files)
    for arg in spec["command"][1:]:
        if "/" in arg:
            assert any(arg.startswith(p + "/") for p in spec["paths"]), arg


def test_names_units_and_bounds() -> None:
    spec = _spec()
    workloads, e2e, layers = spec["workloads"], spec["end_to_end"], spec["per_layer"]
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(layers) <= 128
    names = [w["name"] for w in workloads] + [m["name"] for m in e2e + layers]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for w in workloads:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
        assert w["name"] in WORKLOADS, f"no runner for {w['name']}"
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 <= m["bound"] <= 0.25
    for m in layers:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_end_to_end_metrics_match_the_catalogue() -> None:
    for m in _spec()["end_to_end"]:
        entry = catalogue.BY_NAME[m["name"]]
        assert (entry.unit, entry.better, entry.bound) == (m["unit"], m["better"], m["bound"])
        # The driver reads every declared metric from every workload.
        assert entry.on is catalogue.ALL
    for entry in catalogue.END_TO_END:
        assert UNIT.match(entry.unit) and entry.definition
