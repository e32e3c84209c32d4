# simlint-fixture-module: repro.fix_dead.ledgers
"""SIM017 fixture: a subpackage re-export keeps nothing alive."""

from repro.fix_dead.ledgers.merge import merge_ledgers

__all__ = ["merge_ledgers"]
