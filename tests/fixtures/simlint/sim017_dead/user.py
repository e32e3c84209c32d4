# simlint-fixture-module: repro.fix_dead.user
"""SIM017 fixture: the one real caller of the ledger."""

from repro.fix_dead.ledger import RingLedger


def fill(entries):
    ledger = RingLedger()
    for entry in entries:
        ledger.record(entry)
    return ledger
