"""Observing the hierarchy does not change the program.

Checked mode (the invariant sanitizer) and tracing (the
:class:`~repro.obs.trace.TraceRecorder`) both watch transactions through
:meth:`~repro.mem.hierarchy.MemoryHierarchy.observe`.  The callers run the
same scratch-transaction loops either way, so a watched run must
fingerprint exactly like a bare one; and because those loops reuse one
transaction object per caller, every transaction an observer keeps must
still be its own, intact object after the run.
"""

from dataclasses import replace

import pytest

from repro.analysis.determinism import fingerprint_digest
from repro.core.policies import idio
from repro.faults import FaultPlan
from repro.faults.plan import FaultSpec
from repro.harness.experiment import Experiment, run_experiment
from repro.harness.server import ServerConfig, SimulatedServer
from repro.mem.line import LINE_SIZE
from repro.mem.transaction import (
    CPU_LOAD,
    DMA_WRITE,
    INVALIDATE,
    PREFETCH_FILL,
)
from repro.obs.trace import SERVER_LANES
from repro.sim import units
from tests.traffic import offer_bursts

#: Data-plane PCIe faults: they route every burst through the faulted
#: DMA-write loop (legal TLP reorder plus IDIO header-bit corruption).
DATA_FAULTS = FaultPlan(
    specs=(
        FaultSpec("pcie.tlp_reorder", probability=0.25),
        FaultSpec("pcie.meta_corrupt", probability=0.05),
    ),
    seed=3,
)

#: Latency-breakdown keys only a trace recorder contributes: the mean
#: per-component critical-path split.  A corrupted tag can steer a line
#: into the wrong core's MLC, so faulted runs add ``mean_directory_ns``.
TRACE_ONLY_KEYS = {f"mean_{lane}_ns" for lane in SERVER_LANES}


def idio_summary(plan=None, **observe):
    server = ServerConfig(policy=idio(), ring_size=256, **observe)
    if plan is not None:
        server = replace(server, fault_plan=plan)
    experiment = Experiment(name="observed", server=server, burst_rate_gbps=25.0)
    return run_experiment(experiment).summary()


@pytest.mark.parametrize("plan", [None, DATA_FAULTS], ids=["plain", "pcie-faults"])
def test_bare_checked_and_traced_runs_fingerprint_identically(plan):
    bare = idio_summary(plan)
    checked = idio_summary(plan, checked_mode=True)
    traced = idio_summary(plan, trace_enabled=True)
    assert fingerprint_digest(checked) == fingerprint_digest(bare)

    breakdown = dict(traced.latency_breakdown)
    added = set(breakdown) - set(bare.latency_breakdown)
    assert {"mean_l1_ns", "mean_mlc_ns", "mean_llc_ns", "mean_dram_ns"} <= added
    assert added <= TRACE_ONLY_KEYS
    stripped = {k: v for k, v in breakdown.items() if k not in TRACE_ONLY_KEYS}
    assert stripped == bare.latency_breakdown  # queueing and service included
    assert fingerprint_digest(
        replace(traced, latency_breakdown=stripped)
    ) == fingerprint_digest(bare)


def test_kept_transactions_are_distinct_and_intact():
    """An observer may keep every transaction: none is a reused scratch."""
    server = SimulatedServer(ServerConfig(policy=idio(), ring_size=64))
    server.start()
    kept = []
    server.hierarchy.observe(kept.append)
    offer_bursts(server, rate_gbps=100.0, start=units.microseconds(20))
    server.run_until_drained(deadline=units.milliseconds(12))

    assert len({id(txn) for txn in kept}) == len(kept)
    kinds = {txn.kind for txn in kept}
    assert {CPU_LOAD, DMA_WRITE, PREFETCH_FILL, INVALIDATE} <= kinds
    counters = server.hierarchy.stats.counters
    assert sum(txn.kind == DMA_WRITE for txn in kept) == counters.get("pcie_writes")
    for txn in kept:
        assert txn.addr % LINE_SIZE == 0, txn
        # Only a no-op (a fill of a line already private, an invalidate
        # of an absent line) touches no component.
        assert txn.hops or txn.level in ("dropped", "absent"), txn
        # Prefetch fills are background work: they record hops but
        # charge no latency (the sanitizer exempts them the same way).
        if txn.kind != PREFETCH_FILL:
            assert sum(hop.latency for hop in txn.hops) == txn.latency, txn
