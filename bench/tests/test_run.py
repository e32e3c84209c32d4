"""bench/run.py end to end at tiny sizes, and bench/compare.py verdicts."""

import json
import shutil
import subprocess
import sys

import bench
from bench import catalogue
from bench.compare import compare, verdict


def test_smoke_emits_every_declared_name_for_every_workload(tmp_path) -> None:
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--out", str(out)],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    records = json.loads(out.read_text())["workloads"]
    assert list(records) == [w["name"] for w in spec["workloads"]]
    for workload, record in records.items():
        timed, traced = record["timed"], record["traced"]
        assert timed["correct"] and traced["correct"], workload
        assert timed["fingerprint"] == traced["fingerprint"]
        assert set(m["name"] for m in spec["end_to_end"]) <= set(timed["metrics"])
        assert set(m["name"] for m in spec["per_layer"]) <= set(traced["metrics"])
        defined = {m.name for m in catalogue.END_TO_END if m.on is catalogue.ALL or workload in m.on}
        assert defined <= set(timed["metrics"]), workload
    assert "end-to-end metric" in proc.stdout and "trace.unattributed" in proc.stdout


def test_fails_without_result_when_the_sources_are_missing(tmp_path) -> None:
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "burst_ddio", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _record(fingerprint: str, wall: list, p50: float) -> dict:
    timed = {
        "fingerprint": fingerprint,
        "metrics": {
            "wall_s": {"value": sorted(wall)[len(wall) // 2], "unit": "s"},
            "sim_p50_us": {"value": p50, "unit": "sim_us"},
        },
        "samples": {"wall_s": wall},
    }
    return {"workloads": {"w": {"timed": timed, "traced": {"fingerprint": fingerprint}}}}


def test_compare_verdicts(capsys) -> None:
    wall, p50 = catalogue.BY_NAME["wall_s"], catalogue.BY_NAME["sim_p50_us"]
    steady = {"value": 1.0, "samples": [0.99, 1.0, 1.01]}
    assert verdict(wall, steady, {"value": 1.01, "samples": [1.0, 1.01, 1.02]}) == "same"
    assert verdict(wall, steady, {"value": 2.0, "samples": [1.9, 2.0, 2.1]}) == "worse"
    assert verdict(wall, steady, {"value": 0.5, "samples": [0.5, 0.5, 0.5]}) == "better"
    noisy = {"value": 1.0, "samples": [0.5, 1.0, 2.0]}
    assert verdict(wall, steady, noisy) == "unresolved"
    assert verdict(p50, {"value": 10.0}, {"value": 10.000001}) == "worse"
    assert verdict(p50, {"value": 10.0}, {"value": 9.0}) == "better"
    assert compare(_record("f", [1.0, 1.0, 1.0], 5.0), _record("f", [1.0, 1.01, 1.0], 5.0)) == 0
    assert compare(_record("f", [1.0, 1.0, 1.0], 5.0), _record("f", [1.0, 1.0, 1.0], 6.0)) == 1
    assert compare(_record("f", [1.0, 1.0, 1.0], 5.0), _record("g", [1.0, 1.0, 1.0], 5.0)) == 1
    capsys.readouterr()
