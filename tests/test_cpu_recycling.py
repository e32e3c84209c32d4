"""Tests for the §II-B buffer recycling modes (copy / re-allocate)."""

import pytest

from repro.core.policies import ddio, idio
from repro.cpu.dpdk import (
    RECYCLE_COPY,
    RECYCLE_MODES,
    RECYCLE_REALLOCATE,
    RECYCLE_RUN_TO_COMPLETION,
    PollModeDriver,
)
from repro.harness.experiment import Experiment, run_experiment
from repro.harness.server import ServerConfig
from repro.sim import units


def run_mode(mode, policy=None, ring=64, rate=50.0, **kwargs):
    exp = Experiment(
        name=f"recycle-{mode}",
        server=ServerConfig(
            policy=policy or ddio(),
            app="touchdrop",
            ring_size=ring,
            recycle_mode=mode,
            **kwargs,
        ),
        traffic="bursty",
        burst_rate_gbps=rate,
    )
    return run_experiment(exp)


class TestModeValidation:
    def test_all_modes_enumerated(self):
        assert set(RECYCLE_MODES) == {"run_to_completion", "copy", "reallocate"}

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_mode("zero-copy-deluxe")

    def test_reallocate_requires_pool(self):
        with pytest.raises(ValueError):
            PollModeDriver(
                None, None, None, None,
                __import__("repro.cpu.apps", fromlist=["TouchDrop"]).TouchDrop(),
                recycle_mode=RECYCLE_REALLOCATE,
            )

    def test_copy_requires_copy_pool(self):
        with pytest.raises(ValueError):
            PollModeDriver(
                None, None, None, None,
                __import__("repro.cpu.apps", fromlist=["TouchDrop"]).TouchDrop(),
                recycle_mode=RECYCLE_COPY,
            )

    def test_transmitting_app_requires_run_to_completion(self):
        exp = Experiment(
            name="bad",
            server=ServerConfig(app="l2fwd", ring_size=32, recycle_mode=RECYCLE_COPY),
            traffic="bursty",
            burst_rate_gbps=50.0,
        )
        with pytest.raises(ValueError):
            run_experiment(exp)


class TestCopyMode:
    def test_all_packets_complete(self):
        result = run_mode(RECYCLE_COPY)
        assert result.completed == result.rx_packets == 128

    def test_copy_doubles_core_memory_traffic(self):
        plain = run_mode(RECYCLE_RUN_TO_COMPLETION)
        copied = run_mode(RECYCLE_COPY)
        plain_accesses = sum(c.stats.mem_accesses for c in plain.server.cores)
        copy_accesses = sum(c.stats.mem_accesses for c in copied.server.cores)
        # Copy mode reads the DMA lines AND writes the copy AND processes
        # the copy: ~2x the line touches of in-place processing.
        assert copy_accesses > plain_accesses * 1.7

    def test_copy_mode_slower_per_packet(self):
        plain = run_mode(RECYCLE_RUN_TO_COMPLETION)
        copied = run_mode(RECYCLE_COPY)
        assert copied.burst_processing_time > plain.burst_processing_time

    def test_dma_buffer_dead_after_copy_with_idio(self):
        result = run_mode(RECYCLE_COPY, policy=idio())
        assert result.server.stats.counters.get("self_invalidations") > 0
        assert result.completed == 128


class TestReallocateMode:
    def test_all_packets_complete(self):
        result = run_mode(RECYCLE_REALLOCATE)
        assert result.completed == result.rx_packets == 128

    def test_pool_conserved_after_drain(self):
        result = run_mode(RECYCLE_REALLOCATE)
        for driver in result.server.drivers:
            pool = driver.buffer_pool
            # All stashed buffers returned; the ring still holds ring_size.
            assert len(pool) == pool.count - result.server.config.ring_size

    def test_ring_replenished_with_pool_buffers(self):
        result = run_mode(RECYCLE_REALLOCATE)
        driver = result.server.drivers[0]
        pool = driver.buffer_pool
        for desc in driver.queue.ring.descriptors:
            offset = desc.buffer_addr - pool.base
            assert 0 <= offset < pool.count * pool.stride

    def test_larger_dma_footprint_than_run_to_completion(self):
        """Re-allocation cycles through 2x the buffer addresses, so the
        effective DMA footprint in the hierarchy grows."""
        plain = run_mode(RECYCLE_RUN_TO_COMPLETION, ring=256, rate=100.0)
        realloc = run_mode(RECYCLE_REALLOCATE, ring=256, rate=100.0)
        plain_addrs = plain.server.config.ring_size * 2  # 2 NF cores
        pool_addrs = sum(d.buffer_pool.count for d in realloc.server.drivers)
        assert pool_addrs == 2 * plain_addrs

    def test_idio_invalidation_after_deferred_processing(self):
        result = run_mode(RECYCLE_REALLOCATE, policy=idio())
        assert result.server.stats.counters.get("self_invalidations") > 0
        assert result.completed == 128


class TestLatencyOrdering:
    def test_completions_preserve_packet_order_per_core(self):
        for mode in RECYCLE_MODES:
            result = run_mode(mode)
            for driver in result.server.drivers:
                ids = [p.packet_id for p in driver.completed_packets]
                assert ids == sorted(ids), mode
