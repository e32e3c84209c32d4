# simlint-fixture-module: repro.api
"""SIM017 fixture: the facade exports the caller, not the ledger helpers."""

from repro.fix_dead.user import fill

__all__ = ["fill"]
