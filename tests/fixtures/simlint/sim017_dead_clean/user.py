# simlint-fixture-module: repro.fix_dead.user
"""Clean half of the SIM017 pair: an attribute call and a string target."""

from repro.fix_dead import ledger as ledger_mod

#: Entry points named as strings, the way a tracer names its targets.
TRACED = ("ledger.ledger_csv_row",)


def fill(entries):
    ledger = ledger_mod.RingLedger()
    for entry in entries:
        ledger.record(entry)
    return ledger


SEED_LEDGER = fill([0])
