# simlint-fixture-module: tests.test_fix_dead
"""SIM017 fixture: test code is not a reference."""

from repro.fix_dead.ledger import ledger_csv_row
from repro.fix_dead.user import fill


def test_backlog():
    ledger = fill([1, 2])
    assert ledger.backlog_depth() == 2
    assert ledger_csv_row(ledger) == "1,2"
