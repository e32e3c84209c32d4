"""Hypothesis profiles for the test suite.

Tier-1 runs Hypothesis's default profile: each property sets its own
budget.  ``pytest --hypothesis-profile=deep`` (``make fuzz-bulk``) lifts
the properties that read ``settings.default.max_examples`` to 2000
examples each; ``tests/test_mem_bulk_store.py`` does.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=2000)
