# simlint-fixture-module: repro.fix_dead.ledger
"""Clean half of the SIM017 pair: every public definition is reached."""


class RingLedger:
    def __init__(self):
        self.entries = []

    def __repr__(self):  # dunders are called by the runtime, not by name
        return f"RingLedger({len(self.entries)})"

    def record(self, entry):
        self.entries.append(entry)


def ledger_csv_row(ledger):
    return ",".join(str(e) for e in ledger.entries)


class LedgerSummary:
    def __init__(self, ledger):
        self.count = len(ledger.entries)
