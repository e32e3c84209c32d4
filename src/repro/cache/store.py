"""The content-addressed, on-disk experiment result cache.

A :class:`ResultCache` memoizes :class:`~repro.harness.experiment.
ExperimentSummary` objects keyed by the canonical config digest
(:func:`~repro.cache.digest.config_digest`).  Entries are self-describing
pickles — schema version, producing code version, config digest,
the experiment itself, the summary, and the summary's fingerprint digest
— laid out two-level under the cache root (``ab/abcdef....pkl``) so a
big cache never piles one directory high.

Correctness rules:

* a hit must be byte-identical to a cold recompute — ``get`` re-derives
  the summary's fingerprint digest and refuses (evicts) entries whose
  payload does not match its own metadata;
* every write goes through :func:`_atomic_write_bytes` (temp file +
  ``os.replace`` in the same directory), so a reader sees either the old
  complete entry or the new complete entry and two concurrent writers of
  the same key leave exactly one valid entry (simlint SIM010 forbids any
  other write path in this package);
* :meth:`ResultCache.verify` re-runs a seeded sample of entries (in
  checked mode when asked) and evicts any whose recomputed fingerprint
  diverged; :meth:`ResultCache.gc` reclaims foreign-version, stale, and
  over-budget entries.

Cache traffic is counted in-process (``hits`` / ``misses`` / ``stores``);
the CLI's ``[cache: ...]`` trailer reports those counters.
"""

from __future__ import annotations

import os
import pickle
import random
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.determinism import fingerprint_digest
from .digest import CACHE_SCHEMA, code_version, config_digest, uncacheable_reason

ENTRY_SUFFIX = ".pkl"


class CacheEntryError(Exception):
    """An on-disk entry failed validation (corrupt, foreign, or torn)."""


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    """The one blessed cache writer: temp file + same-directory rename.

    ``os.replace`` is atomic on POSIX, so a concurrent reader sees either
    nothing, the old entry, or the new entry — never a torn write — and
    the last of two racing writers of the same key wins with a valid
    entry.  simlint SIM010 forbids any other write path in ``repro.cache``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, staged = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(staged, path)
    except BaseException:
        with _suppress_oserror():
            os.unlink(staged)
        raise


class _suppress_oserror:
    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return exc_type is not None and issubclass(exc_type, OSError)


@dataclass
class VerifyReport:
    """What ``repro cache verify`` found (and evicted)."""

    entries: int = 0
    sampled: int = 0
    verified_ok: int = 0
    #: Digests whose entries failed load/metadata validation.
    corrupt: List[str] = field(default_factory=list)
    #: Digests whose recomputed fingerprint diverged from the stored one.
    mismatched: List[str] = field(default_factory=list)
    evicted: int = 0

    @property
    def clean(self) -> bool:
        return not self.corrupt and not self.mismatched


@dataclass
class GcReport:
    """What ``repro cache gc`` reclaimed."""

    entries_before: int = 0
    entries_after: int = 0
    bytes_before: int = 0
    bytes_after: int = 0
    evicted_foreign: int = 0
    evicted_stale: int = 0
    evicted_over_budget: int = 0

    @property
    def evicted(self) -> int:
        return (
            self.evicted_foreign + self.evicted_stale + self.evicted_over_budget
        )


class ResultCache:
    """Fingerprint-keyed, on-disk memoization of experiment summaries.

    ``root`` is the cache directory (created on demand); ``version``
    overrides the code component of the key derivation (default:
    :func:`~repro.cache.digest.code_version`; tests use this to prove a
    code change invalidates).
    """

    def __init__(self, root, version: Optional[str] = None) -> None:
        self.root = Path(root)
        self.version = version if version is not None else code_version()
        #: In-process traffic counters (the on-disk truth is ``stats()``).
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # -- keying --------------------------------------------------------

    def digest_for(self, experiment) -> Optional[str]:
        """The entry key for ``experiment`` (``None`` = uncacheable)."""
        if uncacheable_reason(experiment) is not None:
            return None
        return config_digest(experiment, version=self.version)

    def path_for(self, digest: str) -> Path:
        return self.root / digest[:2] / (digest + ENTRY_SUFFIX)

    # -- lookup / store ------------------------------------------------

    def get(self, experiment):
        """The stored summary for ``experiment``, or ``None`` on a miss."""
        hit = self.lookup(experiment)
        return None if hit is None else hit[0]

    def lookup(self, experiment) -> Optional[Tuple[Any, str]]:
        """``(summary, fingerprint digest)`` for ``experiment``, or ``None``.

        The digest is the one loading just recomputed and checked against
        the entry, so a caller needs no second hash of the summary.
        Uncacheable experiments and absent entries count as misses; an
        entry that exists but fails validation is evicted and counted as
        a miss too, so one bad byte can never replay as a result.
        """
        digest = self.digest_for(experiment)
        entry = None
        if digest is not None:
            try:
                entry = self._load(self.path_for(digest), expect_digest=digest)
            except FileNotFoundError:
                pass
            except CacheEntryError:
                self.evict(digest)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry["summary"], entry["fingerprint"]

    def put(self, experiment, summary, fingerprint: str) -> Optional[str]:
        """Persist ``summary`` for ``experiment``; returns the digest.

        ``fingerprint`` is the summary's ``fingerprint_digest``, which the
        caller has already computed (a wrong one makes the entry fail
        validation on load).  A no-op (returns ``None``) for uncacheable
        experiments.  The write is atomic; concurrent writers of the same
        key leave one valid entry (last writer wins — both computed the
        same bytes).
        """
        digest = self.digest_for(experiment)
        if digest is None:
            return None
        entry = {
            "schema": CACHE_SCHEMA,
            "version": self.version,
            "config_digest": digest,
            "fingerprint": fingerprint,
            "experiment": experiment,
            "summary": summary,
            "created": time.time(),
        }
        payload = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        _atomic_write_bytes(self.path_for(digest), payload)
        self.stores += 1
        return digest

    def evict(self, digest: str) -> bool:
        """Remove one entry; returns whether a file was deleted."""
        try:
            os.unlink(self.path_for(digest))
            return True
        except OSError:
            return False

    def _load(self, path: Path, expect_digest: Optional[str] = None) -> Dict:
        """Read and validate one entry; raises :class:`CacheEntryError`.

        Validation covers the metadata (schema, version, key) *and* the
        payload: the summary's fingerprint digest is recomputed and must
        equal the stored one, which is what makes a hit provably
        byte-identical to the run that produced the entry.
        """
        try:
            with open(path, "rb") as fh:
                entry = pickle.load(fh)
        except FileNotFoundError:
            raise
        except Exception as exc:  # pickle / EOF / attribute errors
            raise CacheEntryError(f"unreadable entry: {exc}") from exc
        if not isinstance(entry, dict):
            raise CacheEntryError("entry is not a mapping")
        if entry.get("schema") != CACHE_SCHEMA:
            raise CacheEntryError(
                f"schema {entry.get('schema')!r} != {CACHE_SCHEMA}"
            )
        if entry.get("version") != self.version:
            raise CacheEntryError(
                f"version {entry.get('version')!r} != {self.version!r}"
            )
        if expect_digest is not None and entry.get("config_digest") != expect_digest:
            raise CacheEntryError("entry key does not match its file name")
        try:
            actual = fingerprint_digest(entry["summary"])
        except Exception as exc:
            raise CacheEntryError(f"unfingerprintable summary: {exc}") from exc
        if actual != entry.get("fingerprint"):
            raise CacheEntryError("summary does not match stored fingerprint")
        return entry

    # -- maintenance ---------------------------------------------------

    def entry_paths(self) -> List[Path]:
        """Every entry file under the root, in stable (digest) order."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(f"*/*{ENTRY_SUFFIX}"))

    def stats(self) -> Dict[str, Any]:
        """On-disk census plus this process's traffic counters."""
        entries = 0
        total_bytes = 0
        versions: Dict[str, int] = {}
        for path in self.entry_paths():
            entries += 1
            with _suppress_oserror():
                total_bytes += path.stat().st_size
            try:
                with open(path, "rb") as fh:
                    entry = pickle.load(fh)
                version = str(entry.get("version"))
            except Exception:
                version = "<corrupt>"
            versions[version] = versions.get(version, 0) + 1
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": total_bytes,
            "versions": dict(sorted(versions.items())),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
        }

    def verify(
        self,
        sample: Optional[int] = None,
        seed: int = 0,
        checked: bool = False,
        evict: bool = True,
    ) -> VerifyReport:
        """Validate every entry; re-run a seeded sample against the store.

        Every entry is loaded and metadata-validated (corrupt ones are
        evicted).  A seeded sample of ``sample`` valid entries (all of
        them when ``None``) is then recomputed from its stored
        experiment — in checked mode (invariant sanitizer attached) when
        ``checked`` — and the fresh fingerprint digest must be
        byte-identical to the stored one; mismatches are evicted.
        ``evict=False`` reports without deleting.
        """
        from dataclasses import replace as _replace

        from ..harness.runner import run_experiment_summary

        report = VerifyReport()
        valid: List[Dict] = []
        for path in self.entry_paths():
            report.entries += 1
            digest = path.name[: -len(ENTRY_SUFFIX)]
            try:
                valid.append(self._load(path, expect_digest=digest))
            except (CacheEntryError, FileNotFoundError):
                report.corrupt.append(digest)
                if evict and self.evict(digest):
                    report.evicted += 1
        if sample is not None and sample < len(valid):
            valid = random.Random(seed).sample(valid, sample)
        for entry in valid:
            report.sampled += 1
            experiment = entry["experiment"]
            if checked:
                experiment = _replace(
                    experiment,
                    server=_replace(experiment.server, checked_mode=True),
                )
            fresh = fingerprint_digest(run_experiment_summary(experiment))
            if fresh == entry["fingerprint"]:
                report.verified_ok += 1
            else:
                report.mismatched.append(entry["config_digest"])
                if evict and self.evict(entry["config_digest"]):
                    report.evicted += 1
        return report

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age_days: Optional[float] = None,
    ) -> GcReport:
        """Reclaim space: foreign, stale, then oldest-over-budget entries.

        Unreadable entries and entries written by another schema or
        code version go first (the current version can never hit
        them).  Entries older than ``max_age_days`` go next.  If the
        survivors still exceed ``max_bytes``, the oldest are evicted
        until the cache fits.
        """
        report = GcReport()
        survivors: List[tuple] = []  # (created, size, digest)
        for path in self.entry_paths():
            report.entries_before += 1
            size = 0
            with _suppress_oserror():
                size = path.stat().st_size
            report.bytes_before += size
            digest = path.name[: -len(ENTRY_SUFFIX)]
            try:
                entry = self._load(path, expect_digest=digest)
            except (CacheEntryError, FileNotFoundError):
                self.evict(digest)
                report.evicted_foreign += 1
                continue
            created = float(entry.get("created", 0.0))
            if (
                max_age_days is not None
                and time.time() - created > max_age_days * 86400.0
            ):
                self.evict(digest)
                report.evicted_stale += 1
                continue
            survivors.append((created, size, digest))
        survivors.sort()
        if max_bytes is not None:
            total = sum(size for _, size, _ in survivors)
            while survivors and total > max_bytes:
                created, size, digest = survivors.pop(0)
                self.evict(digest)
                total -= size
                report.evicted_over_budget += 1
        report.entries_after = len(survivors)
        report.bytes_after = sum(size for _, size, _ in survivors)
        return report
