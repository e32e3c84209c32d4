"""Sweep runner: one dispatcher for every batch of seeded experiments.

Every figure in the evaluation is a sweep of independent, seeded
:class:`~repro.harness.experiment.Experiment` runs, so the natural unit
of parallelism is one experiment per worker process.  Workers return
:class:`~repro.harness.experiment.ExperimentSummary` objects — the slim,
picklable slice of a run — never the live server, which keeps the
transfer cheap and the parent's memory flat over long sweeps.

:func:`run_sweep` is the only dispatcher.  It partitions a batch into
result-cache hits and misses, picks serial or warm-pool execution for
the misses, and runs one attempt/retry/record loop over them; the serial
and pool paths differ only in how an attempt's result is fetched.
:func:`run_experiments` is the raising view of the same call.

The pool is *warm*: created once per session (first parallel call) and
reused by every subsequent sweep until :func:`shutdown_pool` (registered
via ``atexit``, wrapped by :func:`pool_session`).  Short sweeps do not
pay pool spawn on every call, and tasks do not carry pickled
experiments: each batch is broadcast once through a spool file tagged
with a generation counter, workers memoize the table per generation,
and the per-task payload is a ``(generation, index, attempt)`` tuple.

Guarantees:

* **Determinism** — an experiment carries its own seeds; a worker process
  replays it identically to a serial run (the determinism regression test
  compares the two fingerprints byte for byte).
* **Ordered results** — summaries and records come back in the order the
  experiments were given, regardless of completion order.
* **Graceful fallback** — ``jobs <= 1``, a single experiment without a
  timeout, or a host where process pools cannot be created (sandboxes
  without ``fork`` / semaphores) all run serially with identical results.
* **Containment** — a sweep timeout terminates and discards the session
  pool (a wedged worker cannot be reclaimed); the next parallel call
  transparently warms a fresh one.
"""

from __future__ import annotations

import atexit
import contextlib
import multiprocessing
import os
import pickle
import random
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, cast

from ..analysis.determinism import fingerprint_digest
from ..cache import resolve_cache
from .experiment import Experiment, ExperimentSummary, run_experiment
from .server import WarmCheckpoint


def default_jobs() -> int:
    """Worker count when the caller asks for "all cores" (``jobs=None``)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def run_experiment_summary(
    experiment: Experiment, warm: Optional[WarmCheckpoint] = None
) -> ExperimentSummary:
    """Run one experiment and reduce it to a summary, releasing the server."""
    result = run_experiment(experiment, warm)
    summary = result.summary()
    result.drop_server()
    return summary


class InjectedCrash(RuntimeError):
    """Raised by a worker whose experiment carries a ``harness.crash``
    fault — the deterministic stand-in for a worker that dies mid-sweep."""


def _apply_harness_faults(experiment: Experiment, attempt: int) -> None:
    """Execute the ``harness.*`` fault kinds for one worker attempt.

    ``harness.crash`` raises before the simulation starts; ``magnitude``
    is the number of attempts that crash (0 = every attempt, so the
    experiment can never succeed).  ``harness.hang`` sleeps ``magnitude``
    wall seconds, which is how the timeout path is tested without a real
    wedge.  ``probability`` gates each fault with a draw derived from
    ``(plan seed, spec index, attempt)`` so retries re-roll
    deterministically.
    """
    plan = experiment.server.fault_plan
    for i, spec in plan.specs_for("harness"):
        if spec.probability < 1.0:
            draw = random.Random((plan.rng_seed(i) << 7) ^ attempt).random()
            if draw >= spec.probability:
                continue
        if spec.kind == "harness.crash":
            crashing = int(spec.magnitude)
            if crashing == 0 or attempt <= crashing:
                raise InjectedCrash(
                    f"injected worker crash (attempt {attempt})"
                )
        elif spec.kind == "harness.hang":
            time.sleep(spec.magnitude)


def _run_attempt(
    experiment: Experiment, attempt: int, warm: Optional[WarmCheckpoint] = None
) -> ExperimentSummary:
    """One attempt at one experiment: harness faults, then the run."""
    _apply_harness_faults(experiment, attempt)
    return run_experiment_summary(experiment, warm)


# ----------------------------------------------------------------------
# warm worker pool
# ----------------------------------------------------------------------

# Worker-side state.  ``_worker_init`` runs once per worker process and
# records where batches are spooled; ``_worker_table`` memoizes the most
# recently loaded batch so the spool file is read once per (worker,
# generation), not once per task.  ``_worker_warm`` is that batch's
# warm-up checkpoint (``None`` for a one-experiment batch): a new
# generation drops it, so no warmed state outlives its sweep.
_worker_spool: Optional[str] = None
_worker_generation: int = -1
_worker_table: List[Experiment] = []
_worker_warm: Optional[WarmCheckpoint] = None


def _worker_init(spool_path: str) -> None:
    global _worker_spool
    _worker_spool = spool_path


def _worker_experiment(generation: int, index: int) -> Experiment:
    global _worker_generation, _worker_table, _worker_warm
    if generation != _worker_generation:
        assert _worker_spool is not None, "worker used before initialization"
        with open(_worker_spool, "rb") as fh:
            spooled_generation, table = pickle.load(fh)
        if spooled_generation != generation:
            # A new batch was broadcast while this stale task sat queued;
            # its result has no consumer, so failing loudly is safe.
            raise RuntimeError(
                f"stale pool task: generation {generation} requested but "
                f"generation {spooled_generation} is spooled"
            )
        _worker_generation, _worker_table = spooled_generation, table
        _worker_warm = WarmCheckpoint() if len(table) > 1 else None
    return _worker_table[index]


def _run_indexed_attempt(task: Tuple[int, int, int]) -> ExperimentSummary:
    """Pool entry point: ``(generation, index, attempt)``."""
    generation, index, attempt = task
    experiment = _worker_experiment(generation, index)
    return _run_attempt(experiment, attempt, _worker_warm)


class WarmPool:
    """A reusable process pool fed through a generation-tagged spool file.

    ``broadcast`` pickles the batch *once* to the spool file; ``submit``
    then dispatches ``(generation, index, attempt)`` tuples.  Workers
    reload the table only when the generation changes, so a
    thousand-experiment sweep pickles its experiments once rather than a
    thousand times, and repeat sweeps over the same pool pay no spawn.
    """

    def __init__(self, workers: int):
        self.workers = workers
        fd, spool_path = tempfile.mkstemp(prefix="repro-sweep-", suffix=".table")
        os.close(fd)
        self.spool_path = spool_path
        self.generation = 0
        self.batches_dispatched = 0
        try:
            self._pool = multiprocessing.get_context().Pool(
                workers, initializer=_worker_init, initargs=(spool_path,)
            )
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(spool_path)
            raise

    def broadcast(self, experiments: Sequence[Experiment]) -> int:
        """Publish a batch to the workers; returns its generation tag."""
        self.generation += 1
        staged = f"{self.spool_path}.{self.generation}"
        with open(staged, "wb") as fh:
            pickle.dump(
                (self.generation, list(experiments)),
                fh,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        # Atomic swap: a worker opening the spool sees either the old
        # complete table or the new complete table, never a torn write.
        os.replace(staged, self.spool_path)
        self.batches_dispatched += 1
        return self.generation

    def submit(self, generation: int, index: int, attempt: int):
        """Async dispatch of one attempt; returns the pool handle."""
        return self._pool.apply_async(
            _run_indexed_attempt, ((generation, index, attempt),)
        )

    def close(self, terminate: bool = False) -> None:
        if terminate:
            self._pool.terminate()
        else:
            self._pool.close()
        self._pool.join()
        with contextlib.suppress(OSError):
            os.unlink(self.spool_path)


_session_pool: Optional[WarmPool] = None

#: Introspection of the most recent dispatch decision: ``mode`` is
#: ``"serial"``, ``"warm-pool"`` or ``"cached"`` (nothing to compute),
#: ``batch`` the number of experiments dispatched (read by the benchmark).
last_dispatch: Dict[str, Any] = {}


def _note_dispatch(mode: str, workers: int, chunksize: int, batch: int) -> None:
    last_dispatch.clear()
    last_dispatch.update(
        {"mode": mode, "workers": workers, "chunksize": chunksize, "batch": batch}
    )


def get_pool(jobs: Optional[int]) -> Optional[WarmPool]:
    """Return the warm session pool, creating or growing it as needed.

    Returns ``None`` when ``jobs <= 1`` or the host cannot create process
    pools — callers fall back to the serial path.  A pool wider than
    requested is reused as-is (idle workers are free); a narrower one is
    replaced so ``jobs`` is always an upper bound honored by capacity.
    """
    global _session_pool
    if jobs is None:
        jobs = default_jobs()
    if jobs <= 1:
        return None
    pool = _session_pool
    if pool is not None and pool.workers >= jobs:
        return pool
    if pool is not None:
        shutdown_pool()
    try:
        _session_pool = WarmPool(jobs)
    except (OSError, PermissionError, ValueError):
        # No semaphores / fork support (restricted sandbox): no pool.
        _session_pool = None
    return _session_pool


def shutdown_pool(terminate: bool = False) -> None:
    """Tear down the session pool (idempotent; re-warmed on next use)."""
    global _session_pool
    pool = _session_pool
    _session_pool = None
    if pool is not None:
        pool.close(terminate=terminate)


atexit.register(shutdown_pool)


@contextlib.contextmanager
def pool_session(jobs: Optional[int] = None) -> Iterator[Optional[WarmPool]]:
    """Scope a warm pool to a ``with`` block: pre-warm, run, tear down.

    The CLI and the validation harness wrap their sweeps in this so a
    multi-figure session shares one pool and still exits clean.
    """
    pool = get_pool(jobs)
    try:
        yield pool
    finally:
        shutdown_pool()


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------


@dataclass
class SweepRecord:
    """The fate of one experiment inside a sweep."""

    name: str
    #: "ok", "retried" (succeeded after >= 1 crash), "cached" (served
    #: from the result cache, no simulation), "timeout", "failed".
    status: str
    attempts: int
    error: Optional[str] = None
    wall_seconds: float = 0.0
    #: ``fingerprint_digest`` of the summary: the digest the result cache
    #: verified on a hit or stored with a fresh result, else ``None`` until
    #: :meth:`SweepResult.fingerprint` computes it.
    fingerprint: Optional[str] = None
    #: The exception the last attempt raised ("failed" records only);
    #: :func:`run_experiments` re-raises it.
    exception: Optional[BaseException] = field(default=None, repr=False, compare=False)

    @property
    def succeeded(self) -> bool:
        return self.status in ("ok", "retried", "cached")


@dataclass
class SweepResult:
    """Partial-result report of one sweep: every experiment is accounted
    for, whether it produced a summary or not.

    ``summaries[i]`` is ``None`` exactly when ``records[i]`` reports a
    timeout or failure, so positional pairing with the input experiments
    is preserved even through losses.
    """

    summaries: List[Optional[ExperimentSummary]] = field(default_factory=list)
    records: List[SweepRecord] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        """``{status: count}`` over every record (absent statuses omitted)."""
        out: Dict[str, int] = {}
        for rec in self.records:
            out[rec.status] = out.get(rec.status, 0) + 1
        return out

    def fingerprint(self, index: int) -> str:
        """``fingerprint_digest`` of ``summaries[index]``, hashed at most once."""
        record = self.records[index]
        if record.fingerprint is None:
            summary = self.summaries[index]
            if summary is None:
                raise ValueError(f"{record.name!r} has no summary ({record.status})")
            record.fingerprint = fingerprint_digest(summary)
        return record.fingerprint

    def raise_first_failure(self) -> None:
        """Re-raise the first failed experiment's exception, in input order."""
        for record in self.records:
            if record.exception is not None:
                raise record.exception

    @property
    def num_failed(self) -> int:
        return sum(1 for rec in self.records if not rec.succeeded)

    @property
    def exit_code(self) -> int:
        """0 = all succeeded; 1 = partial failure; 2 = nothing succeeded."""
        if self.num_failed == 0:
            return 0
        if self.num_failed == len(self.records):
            return 2
        return 1

    def failure_manifest(self) -> Dict[str, Any]:
        """A JSON-able report of the sweep's losses (for CI artifacts)."""
        return {
            "total": len(self.records),
            "counts": self.counts(),
            "exit_code": self.exit_code,
            "failures": [
                {
                    "name": rec.name,
                    "status": rec.status,
                    "attempts": rec.attempts,
                    "error": rec.error,
                    "wall_seconds": round(rec.wall_seconds, 3),
                }
                for rec in self.records
                if not rec.succeeded
            ],
        }


def run_sweep(
    experiments: Iterable[Experiment],
    jobs: Optional[int] = 1,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    retry_backoff_s: float = 0.05,
    cache=None,
) -> SweepResult:
    """Run a sweep that survives crashed, hung, and failing experiments.

    Every experiment resolves to a :class:`SweepRecord`: crashes are
    retried up to ``retries`` extra attempts with linear backoff, a run
    that exceeds ``timeout_s`` wall seconds is reported as ``timeout``,
    and the rest of the sweep completes regardless.  ``jobs=1`` (the
    default) runs in-process; ``jobs=None`` uses one worker per available
    core.  The warm session pool is used when ``jobs > 1`` and there is
    more than one experiment to compute or a timeout to enforce; a host
    without process pools degrades to the serial path, where a timeout is
    detected after the attempt returns rather than enforced.

    ``cache`` is consulted before dispatch: hits skip simulation, are
    reported with status ``"cached"`` (``attempts=0``), and keep their
    place in input order; clean first-try results are stored.  Either
    way the record keeps the summary's fingerprint digest, so the result
    is hashed once (:meth:`SweepResult.fingerprint`).
    ``cache=None`` uses the process-default cache if one is installed
    (:func:`repro.cache.set_default_cache`); ``cache=False`` disables
    caching for this call.  Experiments whose fault plan carries
    ``harness.*`` kinds are *uncacheable by design* — their crashes and
    hangs act on this runner, so they force-miss on every sweep and are
    never stored, keeping resilience paths live.

    A pool timeout poisons the pool — the wedged worker still occupies a
    slot — so the session pool is terminated and discarded; the next
    parallel call warms a fresh one.
    """
    batch = list(experiments)
    if jobs is None:
        jobs = default_jobs()
    resolved = resolve_cache(cache)
    # Every record starts as a cache hit; the attempt loop below
    # overwrites the records of the misses.
    result = SweepResult(
        summaries=[None] * len(batch),
        records=[SweepRecord(name=exp.name, status="cached", attempts=0) for exp in batch],
    )
    misses: List[int] = []
    for index, exp in enumerate(batch):
        hit = resolved.lookup(exp) if resolved is not None else None
        if hit is None:
            misses.append(index)
        else:
            summary, result.records[index].fingerprint = hit
            summary.status = "cached"
            summary.attempts = 0
            result.summaries[index] = summary

    pool = None
    if jobs > 1 and (len(misses) > 1 or (misses and timeout_s is not None)):
        pool = get_pool(jobs)
    if pool is None:
        _note_dispatch("serial" if misses else "cached", 1 if misses else 0, 0, len(misses))
        # The sweep's warm-up checkpoint lives as long as this call.
        warm = WarmCheckpoint() if len(misses) > 1 else None

        def fetch(slot: int, attempt: int) -> ExperimentSummary:
            start = time.perf_counter()
            summary = _run_attempt(batch[misses[slot]], attempt, warm)
            if timeout_s is not None and time.perf_counter() - start > timeout_s:
                raise multiprocessing.TimeoutError()
            return summary

    else:
        _note_dispatch("warm-pool", pool.workers, 1, len(misses))
        warm = pool
        generation = warm.broadcast([batch[index] for index in misses])
        handles = [warm.submit(generation, slot, 1) for slot in range(len(misses))]

        def fetch(slot: int, attempt: int) -> ExperimentSummary:
            if attempt > 1:
                handles[slot] = warm.submit(generation, slot, attempt)
            return handles[slot].get(timeout_s)

    timed_out = False
    for slot, index in enumerate(misses):
        exp = batch[index]
        record = result.records[index]
        start = time.perf_counter()
        while True:
            record.attempts += 1
            try:
                summary = fetch(slot, record.attempts)
            except multiprocessing.TimeoutError:
                # A pool worker is still wedged in its slot; remaining
                # handles are drained first, then the pool is torn down.
                timed_out = True
                record.status = "timeout"
                record.error = f"no result within {timeout_s}s"
            except Exception as exc:  # noqa: BLE001 - report, don't die
                if record.attempts <= retries:
                    time.sleep(retry_backoff_s * record.attempts)
                    continue
                record.status = "failed"
                record.error = f"{type(exc).__name__}: {exc}"
                record.exception = exc
            else:
                record.status = "ok" if record.attempts == 1 else "retried"
                summary.status = record.status
                summary.attempts = record.attempts
                result.summaries[index] = summary
                if (
                    resolved is not None
                    and record.status == "ok"
                    and resolved.digest_for(exp) is not None
                ):
                    resolved.put(exp, summary, result.fingerprint(index))
            break
        record.wall_seconds = time.perf_counter() - start
    if timed_out and pool is not None:
        shutdown_pool(terminate=True)
    return result


def run_experiments(
    experiments: Iterable[Experiment], jobs: Optional[int] = 1, cache=None
) -> List[ExperimentSummary]:
    """Run a batch through :func:`run_sweep` and raise on the first failure.

    The sweep runs without retries or a timeout; summaries come back in
    input order.  If any experiment failed, the first failed experiment's
    own exception (in input order) is re-raised once the batch is done.
    ``jobs`` and ``cache`` follow :func:`run_sweep`.
    """
    result = run_sweep(experiments, jobs=jobs, retries=0, cache=cache)
    result.raise_first_failure()
    return cast(List[ExperimentSummary], result.summaries)


def run_named_experiments(
    named: Sequence[Tuple[str, Experiment]], jobs: int = 1, cache=None
) -> Dict[str, ExperimentSummary]:
    """Run ``(key, experiment)`` pairs and return ``{key: summary}``.

    The figure harness builds its result dictionaries this way: declare
    the whole sweep up front, fan it out, then index summaries by key.
    Insertion order of the dict follows the input order.  ``cache``
    follows :func:`run_experiments`.
    """
    summaries = run_experiments([exp for _, exp in named], jobs=jobs, cache=cache)
    return {key: summary for (key, _), summary in zip(named, summaries)}
