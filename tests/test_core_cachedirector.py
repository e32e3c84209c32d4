"""Tests for the sliced (NUCA) LLC and the CacheDirector baseline."""

import pytest

from repro.core.cachedirector import CacheDirectorController
from repro.core.policies import SlicePinning, cachedirector, ddio, policy_by_name
from repro.harness.experiment import Experiment, run_experiment
from repro.harness.server import ServerConfig, SimulatedServer
from repro.mem.cache import CacheConfig
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.mem.line import LINE_SIZE
from repro.mem.llc import NonInclusiveLLC
from repro.mem.stats import StatsBundle
from repro.pcie.tlp import IdioTag
from repro.sim import Simulator, units


def make_sliced_llc(slices=8, hop=units.cycles(2)):
    cfg = CacheConfig("llc", 8 * 64 * LINE_SIZE, 8, units.cycles(24))
    return NonInclusiveLLC(cfg, StatsBundle(), slices=slices, hop_latency=hop)


class TestSlicedLLC:
    def test_monolithic_has_single_slice(self):
        llc = make_sliced_llc(slices=0)
        assert llc.slice_of(0x1234540) == 0
        assert llc.access_latency(3, 0x1234540) == llc.config.latency

    def test_slice_hash_in_range_and_spread(self):
        llc = make_sliced_llc(slices=8)
        seen = {llc.slice_of(i * LINE_SIZE) for i in range(4096)}
        assert seen == set(range(8))  # the hash reaches every slice

    def test_hash_deterministic(self):
        llc = make_sliced_llc()
        assert llc.slice_of(0x40000) == llc.slice_of(0x40000)

    def test_local_slice_is_fastest(self):
        llc = make_sliced_llc(slices=8)
        addr = 0x40000
        home = llc.slice_of(addr)
        local = llc.access_latency(home, addr)
        far = llc.access_latency((home + 4) % 8, addr)
        assert local == llc.config.latency
        assert far == llc.config.latency + 4 * llc.hop_latency

    def test_ring_distance_is_bidirectional(self):
        llc = make_sliced_llc(slices=8)
        addr = 0x40000
        home = llc.slice_of(addr)
        # 7 hops clockwise == 1 hop counter-clockwise.
        neighbor = (home + 7) % 8
        assert llc.access_latency(neighbor, addr) == llc.config.latency + llc.hop_latency

    def test_slice_override(self):
        llc = make_sliced_llc(slices=8)
        llc.set_slice_override(0x40000, 3)
        assert llc.slice_of(0x40000) == 3

    def test_override_requires_slices(self):
        llc = make_sliced_llc(slices=0)
        with pytest.raises(ValueError):
            llc.set_slice_override(0x40000, 0)

    def test_override_range_checked(self):
        llc = make_sliced_llc(slices=4)
        with pytest.raises(ValueError):
            llc.set_slice_override(0x40000, 4)

    def test_negative_slices_rejected(self):
        with pytest.raises(ValueError):
            make_sliced_llc(slices=-1)


class TestCacheDirectorController:
    def make(self):
        sim = Simulator()
        h = MemoryHierarchy(
            HierarchyConfig(num_cores=2, llc_slices=8)
        )
        return sim, h, CacheDirectorController(sim, h)

    def test_requires_sliced_llc(self):
        sim = Simulator()
        h = MemoryHierarchy(HierarchyConfig(num_cores=2))
        with pytest.raises(ValueError):
            CacheDirectorController(sim, h)

    def test_header_pinned_to_local_slice(self):
        sim, h, ctl = make = self.make()
        addr = 0x123400
        assert ctl.steer(IdioTag(dest_core=1, is_header=True), addr, 0) == "llc"
        assert h.llc.slice_of(addr) == h.llc.home_slice_of_core(1)
        assert ctl.headers_steered == 1

    def test_payload_not_steered(self):
        sim, h, ctl = self.make()
        addr = 0x123440
        before = h.llc.slice_of(addr)
        ctl.steer(IdioTag(dest_core=1, is_header=False), addr, 0)
        assert h.llc.slice_of(addr) == before
        assert ctl.headers_steered == 0


class TestPolicyIntegration:
    def test_policy_table(self):
        p = policy_by_name("cachedirector")
        assert p.steering == SlicePinning()
        assert p.steering.needs_classifier

    def test_server_defaults_slices_for_cachedirector(self):
        server = SimulatedServer(ServerConfig(policy=cachedirector()))
        assert server.hierarchy.llc.slices == 8
        assert isinstance(server.steering, CacheDirectorController)

    def test_header_latency_improves_vs_sliced_ddio(self):
        """On the same NUCA topology, CacheDirector's header pinning must
        not be slower than plain DDIO, and it changes no writeback
        behavior (the paper's critique: the MLC WB penalty remains)."""

        def run(policy):
            exp = Experiment(
                name=f"cd-{policy.name}",
                server=ServerConfig(
                    policy=policy, app="l2fwd", ring_size=256,
                    packet_bytes=1024, llc_slices=8,
                ),
                traffic="bursty",
                burst_rate_gbps=25.0,
            )
            return run_experiment(exp)

        base = run(ddio())
        cd = run(cachedirector())
        assert cd.p50_ns <= base.p50_ns * 1.01
        assert cd.window.mlc_writebacks == pytest.approx(
            base.window.mlc_writebacks, rel=0.1
        )
        assert cd.server.steering.headers_steered > 0
