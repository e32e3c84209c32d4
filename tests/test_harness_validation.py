"""Unit tests for the claims table and its scorecard (full runs live in the CLI)."""

from repro.harness import claims
from repro.harness.claims import Measure, Row, claim, scorecard


class Rows:
    """A stand-in result: only the row dicts a claim reads."""

    def __init__(self, *rows):
        self._rows = list(rows)

    def rows(self):
        return self._rows


EXE = Rows(
    {"policy": "ddio", "rate_gbps": 25.0, "exe_time": 1.0, "llc_wb": 900},
    {"policy": "idio", "rate_gbps": 25.0, "exe_time": 0.99963, "llc_wb": 300},
    {"policy": "idio", "rate_gbps": 100.0, "exe_time": 0.8, "llc_wb": 400},
)


def grade(*checks, **options):
    return claim("fig10.test", "a claim", "0.5x", *checks, **options).evaluate(EXE)


class TestScorecard:
    def test_counts(self):
        verdicts = [grade(Row(policy="idio").exe_time < 1.0),
                    grade(Row(policy="idio").exe_time > 1.0)]
        assert [v.passed for v in verdicts] == [True, False]
        assert scorecard(verdicts).endswith("\n1/2 claims reproduced")

    def test_all_passed(self):
        verdict = grade(Row(policy="idio").llc_wb < 0.5 * Row(policy="ddio").llc_wb)
        assert verdict.passed
        assert scorecard([verdict]).endswith("\n1/1 claims reproduced")

    def test_render_contains_verdicts(self):
        text = scorecard([
            grade(Row(policy="idio", rate_gbps=25.0).exe_time < 0.95),
            grade(Row(policy="idio", rate_gbps=100.0).exe_time < 0.95),
        ])
        assert text.startswith("IDIO reproduction scorecard")
        assert "FAIL" in text and "PASS" in text
        assert "| fig10  |" in text and "0.5x" in text

    def test_check_fields(self):
        c = claim("ext-baselines.x", "label", "paper", Row().llc_wb > 0, figure="ext")
        assert (c.run, c.figure, c.suites, c.deviation) == ("ext-baselines", "ext", ("paper",),
                                                            False)
        verdict = c.evaluate(EXE)
        assert verdict.claim is c and verdict.passed and verdict.measured == "300"

    def test_validators_registered_for_every_eval_figure(self):
        figures = {c.figure or c.run for c in claims.suite("validate")}
        assert figures == {"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "ext"}
        assert len(claims.suite("validate")) == 20
        assert {c.run for c in claims.suite("validate")} == set(claims.VALIDATE_RUNS)
        assert {c.run for c in claims.suite("paper")} == set(claims.PAPER_RUNS)
        assert set(claims.PAPER_RUNS) == set(claims.FIGURES)
        assert len({c.id for c in claims.CLAIMS}) == len(claims.CLAIMS)


class TestClaims:
    def test_passing_value_never_prints_as_its_bound(self):
        # 0.99963 < 1.0 holds; at 3 significant digits it would read "1".
        verdict = grade(Row(policy="idio", rate_gbps=25.0).exe_time < 1.0)
        assert verdict.passed and verdict.measured == "0.9996"

    def test_failing_value_never_prints_as_its_bound(self):
        verdict = grade(Row(policy="idio", rate_gbps=25.0).exe_time >= 1.0)
        assert not verdict.passed and verdict.measured == "0.9996"

    def test_reference_prints_apart_from_the_value(self):
        rows = Rows({"rate_gbps": 25.0, "cut": 30.34}, {"rate_gbps": 100.0, "cut": 30.26})
        verdict = claim("fig12.t", "l", "p", Row(rate_gbps=25.0).cut >= Row(rate_gbps=100.0).cut,
                        show="{0:.1f}% vs {0.ref:.1f}%").evaluate(rows)
        assert verdict.passed and verdict.measured == "30.34% vs 30.26%"

    def test_equal_values_print_plainly(self):
        verdict = grade(Row(policy="ddio").exe_time <= 1.0)
        assert verdict.passed and verdict.measured == "1"

    def test_every_picked_row_must_hold(self):
        assert grade(Row(policy="idio").exe_time < 0.9).measured == "1"
        assert not grade(Row(policy="idio").exe_time < 0.9).passed
        assert grade(Row(policy="idio").exe_time.spread < 0.2).passed
        assert grade(Row(policy="idio").exe_time.count == 2).passed

    def test_reference_rows_pair_in_order(self):
        rows = Rows(*({"policy": p, "rate": r, "drops": d}
                      for p, r, d in (("ddio", 1, 5), ("ddio", 2, 9),
                                      ("idio", 1, 5), ("idio", 2, 8))))
        check = Row(policy="idio").drops <= Row(policy="ddio").drops + 0.1
        assert claim("x.t", "l", "p", check).evaluate(rows).passed
        check = Row(policy="idio").drops < Row(policy="ddio", rate=2).drops
        assert claim("x.t", "l", "p", check).evaluate(rows).passed

    def test_measure_and_function_bounds(self):
        assert grade(Measure(lambda result: len(result.rows())) == 3).passed
        verdict = grade(Row(policy="ddio").llc_wb == (lambda result: 900),
                        show="{0} of {0.bound} lines")
        assert verdict.passed and verdict.measured == "900 of 900 lines"

    def test_missing_row_fails(self):
        verdict = grade(Row(policy="static").exe_time < 1.0)
        assert not verdict.passed and "static" in verdict.measured

    def test_paper_values_come_from_the_figure_constants(self):
        by_id = {c.id: c for c in claims.CLAIMS}
        assert by_id["fig10.exe-100"].paper == "0.815x"
        assert by_id["fig10.exe-25"].paper == "0.780x"
        assert by_id["fig10.corun-exe-25"].paper == "0.792x"
        assert by_id["fig12.p99-cut-100"].paper == "7.9%"
        assert by_id["fig12.p99-cut-25"].paper == "30.5%"
        assert by_id["fig4.ring1024-mlc-wb"].deviation
