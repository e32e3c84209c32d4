# simlint-fixture-module: repro.fix_dead.ledger
"""SIM017 fixture: definitions that nothing outside tests reaches."""


class RingLedger:
    def __init__(self):
        self.entries = []

    def record(self, entry):
        self.entries.append(entry)

    def backlog_depth(self):  # only the test module calls this
        return len(self.entries)


def ledger_csv_row(ledger):  # ledger_csv_row: named only in comments
    return ",".join(str(e) for e in ledger.entries)
