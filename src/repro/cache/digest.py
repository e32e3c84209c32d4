"""The canonical config digest: the result cache's key derivation.

Two experiments that would simulate byte-identically must digest
identically, and *any* change that could alter a single simulated event
must change the digest.  The derivation is deliberately conservative:
the whole :class:`~repro.harness.experiment.Experiment` — including the
nested :class:`~repro.harness.server.ServerConfig`, policy, NIC,
classifier, cost-model, and :class:`~repro.faults.plan.FaultPlan`
dataclasses, and every traffic parameter and seed — is walked field by
field into a canonical nested tuple, prefixed with the cache schema
version and the code version (:func:`code_version`: ``repro.__version__``
plus a hash of the package sources), and hashed.  A field we cannot
canonicalize makes the experiment *uncacheable* rather than guessed at.

Invalidation therefore falls out of the key: change any config field,
any seed, the fault plan, the package version or any source file and
the digest moves, so stale entries are simply never looked up
(``repro cache gc`` reclaims them).  See ``docs/caching.md`` for the full rules.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from pathlib import Path
from typing import Any, Optional, Tuple

#: Bumped whenever the entry layout or the digest derivation changes:
#: entries written under a different schema are unreadable by design.
CACHE_SCHEMA = 1

#: Fault layers whose specs make an experiment uncacheable.  ``harness.*``
#: faults (crashes, hangs) act on the *sweep runner*, not the simulation;
#: memoizing their summaries would let a resilience test observe a stale
#: "crash" that never re-fires.  Force-missing them keeps retry/timeout
#: paths live on every run.
UNCACHEABLE_FAULT_LAYERS: Tuple[str, ...] = ("harness",)


def canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a repr-stable nested tuple for hashing.

    Handles the closed vocabulary an :class:`Experiment` is built from:
    ``None``, bools, ints, floats, strings, dataclasses (tagged with the
    class name, fields in declaration order), mappings (sorted by key),
    and sequences.  Anything else raises :class:`TypeError` — the caller
    treats that experiment as uncacheable instead of mis-keying it.
    """
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (
            type(obj).__name__,
            tuple(
                (f.name, canonical(getattr(obj, f.name)))
                for f in dataclasses.fields(obj)
            ),
        )
    if isinstance(obj, dict):
        return (
            "dict",
            tuple(
                sorted((canonical(k), canonical(v)) for k, v in obj.items())
            ),
        )
    if isinstance(obj, (list, tuple)):
        return ("seq", tuple(canonical(item) for item in obj))
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!r} for the result cache"
    )


def uncacheable_reason(experiment) -> Optional[str]:
    """Why ``experiment`` must bypass the cache (``None`` = cacheable)."""
    plan = experiment.server.fault_plan
    for spec in plan.specs:
        if spec.layer in UNCACHEABLE_FAULT_LAYERS:
            return (
                f"fault plan contains {spec.kind!r}: harness faults drive "
                "the sweep runner and must never be memoized"
            )
    try:
        canonical(experiment)
    except TypeError as exc:
        return str(exc)
    return None


def is_cacheable(experiment) -> bool:
    """Whether the result cache may serve or store this experiment."""
    return uncacheable_reason(experiment) is None


@functools.lru_cache(maxsize=None)
def code_version() -> str:
    """``repro.__version__`` plus a SHA-256 of the package's sources.

    The default code component of every cache key, so an edit to any
    ``repro/**/*.py`` file moves every digest even without a version
    bump: a persistent cache never replays summaries computed by other
    code.  Computed once per process.
    """
    from .. import __version__

    root = Path(__file__).resolve().parent.parent
    sources = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        sources.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        sources.update(path.read_bytes() + b"\0")
    return f"{__version__}+{sources.hexdigest()}"


def config_digest(experiment, version: Optional[str] = None) -> str:
    """SHA-256 hex digest keying one experiment's cached result.

    ``version`` defaults to :func:`code_version`; passing it explicitly
    exists for tests that prove a version change invalidates every
    entry.  Raises :class:`TypeError` for uncanonicalizable experiments
    — use :func:`is_cacheable` first.
    """
    if version is None:
        version = code_version()
    payload = repr(
        ("repro-result-cache", CACHE_SCHEMA, version, canonical(experiment))
    ).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()
