"""Smoke tests for every figure/extension harness entry point.

Each harness function runs here at tiny scale (small rings, short
windows, few sweep points) — these guard the orchestration code paths so
the full-scale benchmarks never fail on plumbing.  Shape assertions live
in benchmarks/; here we check structure, and pin each figure's printed
text and row dicts by SHA-256 prefix (seeded runs are deterministic, so
a refactor of the figure harness must reproduce both byte for byte).
"""

import hashlib
import json

from repro.harness import extensions, figures
from repro.harness.matrix import SweepResult


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def check_report(report, expected_figure, text_sha, rows_sha):
    assert isinstance(report, SweepResult), expected_figure
    assert report.rows(), "no rows produced"
    assert all(cell.summary is not None for cell in report.cells)
    assert _sha(report.render()) == text_sha
    assert _sha(json.dumps(report.rows(), sort_keys=True)) == rows_sha


class TestFigureHarness:
    def test_fig4(self):
        report = figures.fig4(
            ring_sizes=(64,),
            loads_gbps_per_nf={"high": 10.0},
            duration_us=200.0,
            include_1way=False,
            max_duration_us=400.0,
        )
        check_report(report, "fig4", "a941f7418e4513d6", "58a4af67a9c4aefb")
        assert {r["ring"] for r in report.rows()} == {64}

    def test_fig5(self):
        report = figures.fig5(ring_size=64, num_bursts=2, burst_period_ms=0.5)
        check_report(report, "fig5", "c6c2dff53952a72e", "f71533f8d1e5f813")

    def test_fig9(self):
        report = figures.fig9(
            burst_rates=(100.0,), ring_size=64, policy_names=("ddio", "idio")
        )
        check_report(report, "fig9", "98786e38c0648123", "29471263df21efbc")
        assert {r["policy"] for r in report.rows()} == {"ddio", "idio"}

    def test_fig10(self):
        # Two rates and a co-run: each ratio row must pair with its own
        # DDIO baseline cell.
        report = figures.fig10(
            burst_rates=(100.0, 25.0),
            ring_size=64,
            include_static=False,
            include_corun=True,
            corun_rates=(25.0,),
        )
        check_report(report, "fig10", "529f9eec9dd314c3", "7421603de05e56eb")
        assert all("mlc_writebacks" in r for r in report.rows())

    def test_fig11(self):
        report = figures.fig11(ring_size=64, include_payload_drop=True)
        check_report(report, "fig11", "85b778f0b8a961bf", "d572ae7880e56f73")
        assert {r["config"] for r in report.rows()} == {
            "ddio", "idio", "idio-payload-drop",
        }

    def test_fig12(self):
        report = figures.fig12(
            burst_rates=(100.0, 25.0), ring_size=64, include_corun=False
        )
        check_report(report, "fig12", "b5375823fc4c50d8", "668c5238b1d0cd15")
        row = report.rows()[0]
        assert row["ddio_p99_us"] > 0 and row["idio_p99_us"] > 0

    def test_fig13(self):
        report = figures.fig13(ring_size=64, duration_us=300.0)
        check_report(report, "fig13", "7cfd1035ef18d1af", "d79c0618b74d5eaf")

    def test_fig14(self):
        report = figures.fig14(thresholds_mtps=(50.0,), ring_size=64)
        check_report(report, "fig14", "74955160c45473bb", "f2f93eec70b9de25")
        assert len(report.rows()) == 1


class TestExtensionHarness:
    def test_ext_baselines(self):
        report = extensions.ext_baselines(burst_rates=(50.0,), ring_size=64)
        check_report(report, "ext-baselines", "3617d85f054e3573", "5c8adb8239fea153")
        assert {r["policy"] for r in report.rows()} == {
            "ddio", "iat", "idio", "idio-regulated",
        }

    def test_ext_recycling(self):
        report = extensions.ext_recycling_modes(
            ring_size=64, policy_names=("ddio",)
        )
        check_report(report, "ext-recycling", "0b54819a20783e15", "fff95061a6f2b630")
        assert {r["mode"] for r in report.rows()} == {
            "run_to_completion", "copy", "reallocate",
        }

    def test_ext_burst_threshold(self):
        report = extensions.ext_burst_threshold(
            thresholds_gbps=(10.0,), ring_size=64
        )
        check_report(report, "ext-burstthr", "cbe24f74d26c5a9a", "78e2d1f788ed35ce")

    def test_ext_ring_sweep(self):
        report = extensions.ext_ring_sweep(ring_sizes=(64,))
        check_report(report, "ext-ring", "4be1d38ca9825ae9", "20b38cefb5319c78")

    def test_ext_inclusive(self):
        report = extensions.ext_inclusive_counterfactual(ring_size=64)
        check_report(report, "ext-inclusive", "154bacd275f20d54", "4bfca2f23d7d3d86")
        assert {r["hierarchy"] for r in report.rows()} == {
            "inclusive", "non-inclusive",
        }

    def test_ext_saturation(self):
        report = extensions.ext_saturation(
            rates_gbps=(10.0,), ring_size=64, duration_us=300.0
        )
        check_report(report, "ext-saturation", "09a1e0f934782575", "a0c0bddd464d37b9")

    def test_ext_cachedirector(self):
        report = extensions.ext_cachedirector(ring_size=64)
        check_report(report, "ext-cachedirector", "2f1419701c437ab2", "8502c6eb8a3c9d37")

    def test_ext_mixed(self):
        report = extensions.ext_mixed_deployment(ring_size=64)
        check_report(report, "ext-mixed", "8fe6671d59e5b960", "2af872897b938eed")

    def test_ext_traffic(self):
        report = extensions.ext_traffic_realism(ring_size=64, duration_us=200.0)
        check_report(report, "ext-traffic", "70c12b0ad0b06311", "011efdef9fe97b8d")
