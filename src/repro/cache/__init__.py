"""The fingerprint-keyed experiment result cache.

``repro.cache`` memoizes :class:`~repro.harness.experiment.
ExperimentSummary` objects on disk, keyed by a canonical *config digest*
over the whole experiment (every config field, every seed, the fault
plan, and the code version: ``repro.__version__`` plus a hash of the
package sources — see :mod:`repro.cache.digest`).  The sweep runner
consults it before dispatching to the warm pool, so a re-run sweep
recomputes only the cells whose configs moved.  ``docs/caching.md``
documents the key derivation and the invalidation rules.

Correctness anchor: a cache hit returns a summary whose fingerprint is
byte-identical to a cold recompute — entries self-verify on load, and
``repro cache verify`` re-runs a sampled subset (optionally in checked
mode) and evicts any divergence.

Two ways to use it:

* explicitly — pass a :class:`ResultCache` to ``run_sweep`` /
  ``run_experiments`` / ``run_tenants``;
* ambiently — install a process-default cache (:func:`set_default_cache`
  or the :func:`cache_session` context manager) and every runner call
  without an explicit ``cache=`` picks it up.  This is how the CLI's
  ``--cache-dir`` flag reaches figure code that calls the runner
  internally.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Iterator, Optional

from .digest import (
    CACHE_SCHEMA,
    UNCACHEABLE_FAULT_LAYERS,
    canonical,
    code_version,
    config_digest,
    is_cacheable,
    uncacheable_reason,
)
from .store import GcReport, ResultCache, VerifyReport

__all__ = [
    "CACHE_SCHEMA",
    "GcReport",
    "ResultCache",
    "UNCACHEABLE_FAULT_LAYERS",
    "VerifyReport",
    "cache_session",
    "canonical",
    "code_version",
    "config_digest",
    "default_cache_dir",
    "get_default_cache",
    "is_cacheable",
    "resolve_cache",
    "set_default_cache",
    "uncacheable_reason",
]

#: Environment variable naming the default on-disk cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_default_cache: Optional[ResultCache] = None


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``.repro-cache`` under the working directory."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.cwd() / ".repro-cache"


def set_default_cache(cache: Optional[ResultCache]) -> Optional[ResultCache]:
    """Install (or clear, with ``None``) the process-default cache.

    Returns the previous default so callers can restore it.
    """
    global _default_cache
    previous = _default_cache
    _default_cache = cache
    return previous


def get_default_cache() -> Optional[ResultCache]:
    """The installed process-default cache, if any (``None`` = caching off)."""
    return _default_cache


def resolve_cache(cache=None) -> Optional[ResultCache]:
    """What the runner actually uses for a ``cache=`` argument.

    ``None`` (the default argument everywhere) falls through to the
    process-default; ``False`` explicitly disables caching for the call
    even when a default is installed (the ``--no-cache`` path); a
    :class:`ResultCache` is used as-is.
    """
    if cache is False:
        return None
    if cache is None:
        return get_default_cache()
    return cache


@contextlib.contextmanager
def cache_session(root, version: Optional[str] = None) -> Iterator[ResultCache]:
    """Install a cache at ``root`` as the process default for a ``with`` block."""
    cache = ResultCache(root, version=version)
    previous = set_default_cache(cache)
    try:
        yield cache
    finally:
        set_default_cache(previous)
