# simlint-fixture-module: repro.fix_dead.ledgers.merge
"""SIM017 fixture: reached only through its package's __all__."""


def merge_ledgers(a, b):
    return a.entries + b.entries
