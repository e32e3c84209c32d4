"""The paper's claims at paper scale: one test id per claim.

Each claim of the ``paper`` suite (:mod:`repro.harness.claims`) is graded
on the figure run :data:`repro.harness.claims.PAPER_RUNS` names.  Each
figure runs once per session and prints its table (``pytest -s``); the
suite lists a figure's claims together, so only the latest run is kept.
"""

import pytest

from repro.harness import claims


@pytest.fixture(scope="session")
def paper_run():
    latest = {}

    def run(name):
        if name not in latest:
            latest.clear()
            latest[name] = claims.FIGURES[name](**claims.PAPER_RUNS[name])
            print()
            print(latest[name].render())
        return latest[name]

    return run


@pytest.mark.parametrize("claim", claims.suite("paper"), ids=lambda c: c.id)
def test_claim(claim, paper_run):
    verdict = claim.evaluate(paper_run(claim.run))
    assert verdict.passed, f"{claim.label}: measured {verdict.measured}, paper {claim.paper}"
