# simlint-fixture-module: repro.api
"""Clean half of the SIM017 pair: an export through repro.api keeps a name."""

from repro.fix_dead.ledger import LedgerSummary

__all__ = ["LedgerSummary"]
