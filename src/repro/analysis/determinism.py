"""Determinism digest: a stable hash over a run's simulation-derived state.

:meth:`~repro.harness.experiment.ExperimentSummary.fingerprint` already
collects every simulation-derived field of a run (and excludes the
wall-clock diagnostics); this module reduces that tuple to a short hex
digest so two runs can be compared — and reported — at a glance.  The
``repro check`` CLI runs the same seeded experiment twice and requires
the digests to be byte-identical, which is the guarantee the process-pool
runner and the figure harness lean on.
"""

from __future__ import annotations

import hashlib
from array import array
from typing import Iterator

#: Items of an ``array`` rendered per piece: bounds the int objects and
#: the text a long timestamp column holds alive while it is hashed.
_ARRAY_PIECE = 4096


def fingerprint_digest(summary) -> str:
    """SHA-256 hex digest of a summary's deterministic fingerprint.

    ``summary`` is any object with a ``fingerprint()`` method returning a
    ``repr``-stable tuple (floats repr round-trip exactly, so equal
    fingerprints imply equal digests and vice versa).  The hashed text is
    ``repr(fingerprint)`` with each ``array`` in it written as the tuple of
    its items, fed to the hash piece by piece, so a long timestamp column
    never becomes one string or one tuple of int objects.
    """
    digest = hashlib.sha256()
    for piece in _repr_pieces(summary.fingerprint()):
        digest.update(piece.encode("utf-8"))
    return digest.hexdigest()


def _repr_pieces(value) -> Iterator[str]:
    """``repr(value)`` in pieces, with each ``array`` written as a tuple."""
    if isinstance(value, array):
        yield "("
        for start in range(0, len(value), _ARRAY_PIECE):
            if start:
                yield ", "
            yield repr(value[start : start + _ARRAY_PIECE].tolist())[1:-1]
        yield ",)" if len(value) == 1 else ")"
    # A tuple with nothing nested is written whole: one repr beats one per item.
    elif type(value) is tuple and any(isinstance(v, (tuple, array)) for v in value):
        yield "("
        for index, item in enumerate(value):
            if index:
                yield ", "
            yield from _repr_pieces(item)
        yield ",)" if len(value) == 1 else ")"
    else:
        yield repr(value)
