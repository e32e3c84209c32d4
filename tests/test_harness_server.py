"""Tests for the simulated-server builder."""

from dataclasses import replace

import pytest

from repro.core.controller import IDIOController
from repro.core.policies import (
    ddio,
    idio,
    invalidate_only,
    static_idio,
    static_partition,
)
from repro.harness.experiment import Experiment, run_experiment
from repro.harness.server import ServerConfig, SimulatedServer
from repro.net.traffic import ImixProfile, PoissonProfile, SteadyProfile
from repro.pcie.tlp import IdioTag
from repro.sim import units
from repro.tenants.scenarios import tenant_mix
from tests.traffic import offer_bursts


def _case(row, kwargs, message):
    """One bad-input row, with an explicit id: deleting a row leaves
    every other row's id as it was."""
    return pytest.param(kwargs, message, id=f"kwargs{row}-{message}")


class TestConfigValidation:
    """A bad config fails when it is built, with one message."""

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            _case(0, {"apps": ["touchdrop"], "num_nf_cores": 2}, "apps lists 1 entries for 2"),
            _case(1, {"app": "webserver"}, "unknown app 'webserver'"),
            _case(2, {"apps": ["touchdrop", "webserver"]}, "unknown app 'webserver'"),
            _case(3, {"tenants": tenant_mix("noisy-neighbor"), "num_nf_cores": 3},
                  "tenant set needs 2 NF cores"),
            _case(4, {"tenants": tenant_mix("noisy-neighbor"), "policy": static_partition(),
                      "ddio_ways": 1}, "tenant way quotas sum to 2"),
            _case(5, {"num_nics": 0}, "num_nics must be at least 1"),
            _case(6, {"recycle_mode": "recycle-bin"}, "unknown recycle mode"),
            _case(7, {"num_nf_cores": 0}, "num_nf_cores must be at least 1"),
            _case(8, {"packet_bytes": 0}, "packet_bytes must be at least 1"),
            _case(9, {"ring_size": 0}, "ring_size must be at least 1"),
            _case(10, {"llc_bytes": 1000}, "llc_bytes: size 1000 B is not a positive multiple"),
            _case(11, {"llc_ways": 0}, "llc_ways must be at least 1, got 0"),
            _case(12, {"ddio_ways": 0}, r"ddio_ways must be in 1\.\.12, got 0"),
            _case(13, {"ddio_ways": 13}, r"ddio_ways must be in 1\.\.12, got 13"),
            _case(14, {"nf_mlc_bytes": 1000},
                  "nf_mlc_bytes: size 1000 B is not a positive multiple"),
            _case(15, {"nf_cat_ways": 0},
                  r"nf_cat_ways must be in 1\.\.10 \(the non-DDIO ways\), got 0"),
            _case(16, {"nf_cat_ways": 11},
                  r"nf_cat_ways must be in 1\.\.10 \(the non-DDIO ways\), got 11"),
            _case(17, {"antagonist": True, "antagonist_buffer_bytes": 0},
                  r"antagonist_buffer_bytes must be at least 64 \(one line\), got 0"),
            _case(18, {"llc_slices": -1}, "llc_slices must be non-negative, got -1"),
            _case(19, {"num_nf_cores": 64, "ring_size": 8, "policy": idio()},
                  "num_nf_cores must be at most 63 under idio"),
            _case(20, {"antagonist": True, "antagonist_buffer_bytes": 32},
                  r"antagonist_buffer_bytes must be at least 64 \(one line\), got 32"),
        ],
    )
    def test_rejected_at_construction(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ServerConfig(**kwargs)

    def test_63_nf_cores_run_under_a_tagging_policy(self):
        # Core 62 is the highest destination a TLP tag can name.
        server = ServerConfig(num_nf_cores=63, ring_size=8, policy=idio())
        exp = Experiment(server=server, packets_per_burst=1,
                         drain_allowance=units.microseconds(20))
        summary = run_experiment(exp).summary()
        assert summary.completed == summary.offered_packets == 63

    def test_quota_check_only_for_partitioning_policies(self):
        ServerConfig(tenants=tenant_mix("noisy-neighbor"), ddio_ways=1)


class TestTrafficValidation:
    """Bad traffic fails when the ``Experiment`` is built, not in the run."""

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            _case(0, {"traffic": "square-wave"}, "unknown traffic kind 'square-wave'"),
            _case(1, {"traffic": "diurnal", "diurnal_period": 0},
                  "diurnal period must be positive, got 0"),
            _case(2, {"traffic": "diurnal", "steady_rate_gbps_per_nf": -1.0},
                  "diurnal trough rate must be non-negative"),
            _case(3, {"traffic": "steady", "steady_rate_gbps_per_nf": 1e12},
                  "too high for 1514 B packets"),
            _case(4, {"traffic": "poisson", "steady_rate_gbps_per_nf": 1e12},
                  "too high for 1514 B packets"),
            _case(5, {"traffic": "bursty", "burst_rate_gbps": 0.0},
                  "bandwidth must be positive"),
            _case(6, {"traffic": "bursty", "num_bursts": 0},
                  "burst shape parameters must be positive"),
            _case(7, {"packets_per_burst": 0}, "packets_per_burst must be at least 1, got 0"),
            _case(8, {"drain_allowance": -1}, "drain_allowance must be non-negative, got -1"),
        ],
    )
    def test_rejected_at_construction(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            Experiment(**kwargs)

    def test_replace_revalidates(self):
        with pytest.raises(ValueError, match="unknown traffic kind"):
            replace(Experiment(), traffic="square-wave")


class TestTopology:
    def test_default_matches_scaled_table1(self):
        """Table I (scaled per §III Obs. 4): geometry sanity checks."""
        server = SimulatedServer(ServerConfig())
        h = server.hierarchy
        assert h.config.num_cores == 2
        assert h.mlc[0].config.size_bytes == 1024 * 1024
        assert h.mlc[0].config.assoc == 8
        assert h.llc.config.size_bytes == 3 * 1024 * 1024
        assert h.llc.config.assoc == 12
        assert h.llc.ddio_ways == 2
        assert not h.llc.inclusive
        assert h.l1[0] is not None and h.l1[0].config.size_bytes == 64 * 1024

    def test_antagonist_adds_core_with_small_mlc(self):
        server = SimulatedServer(ServerConfig(antagonist=True))
        assert server.hierarchy.config.num_cores == 3
        assert server.hierarchy.mlc[2].config.size_bytes == 256 * 1024

    def test_queue_per_nf_core(self):
        server = SimulatedServer(ServerConfig(num_nf_cores=2))
        assert set(server.nics[0].queues) == {0, 1}
        assert {q.core for q in server.nics[0].queues.values()} == {0, 1}

    def test_memory_regions_disjoint(self):
        server = SimulatedServer(ServerConfig())
        regions = []
        for queue in server.nics[0].queues.values():
            ring = queue.ring
            d0 = ring.descriptors[0]
            dn = ring.descriptors[-1]
            regions.append((d0.desc_addr, dn.desc_addr + 128))
            regions.append((d0.buffer_addr, dn.buffer_addr + 2048))
        regions.sort()
        for (s1, e1), (s2, e2) in zip(regions, regions[1:]):
            assert e1 <= s2

    def test_buffers_marked_invalidatable(self):
        server = SimulatedServer(ServerConfig())
        for queue in server.nics[0].queues.values():
            assert server.page_table.is_invalidatable(queue.ring.descriptors[0].buffer_addr)

    def test_cat_mask_applied(self):
        server = SimulatedServer(ServerConfig(nf_cat_ways=1))
        assert server.hierarchy.llc._core_masks[0] == (2,)  # first non-DDIO way only

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            SimulatedServer(ServerConfig(app="webserver"))

    def test_legacy_antagonist_is_the_first_antagonist(self):
        server = SimulatedServer(ServerConfig(antagonist=True))
        (antagonist,) = server.antagonists
        assert antagonist.core.core_id == 2
        assert antagonist.app.seed == 42

    def test_double_start_rejected(self):
        server = SimulatedServer(ServerConfig())
        server.start()
        with pytest.raises(RuntimeError):
            server.start()


class TestPolicyWiring:
    def test_ddio_has_no_controller_or_classifier(self):
        server = SimulatedServer(ServerConfig(policy=ddio()))
        assert server.steering is None
        assert server.nics[0].classifier is None

    def test_invalidate_only_software_only(self):
        server = SimulatedServer(ServerConfig(policy=invalidate_only()))
        assert server.steering is None
        assert server.drivers[0].self_invalidate

    def test_idio_wires_controller_and_classifier(self):
        server = SimulatedServer(ServerConfig(policy=idio()))
        assert isinstance(server.steering, IDIOController)
        assert server.nics[0].classifier is not None
        assert server.root_complex.steering_hook == server.steering.steer
        assert server.steering.direct_dram_enabled

    def test_static_pins_status(self):
        server = SimulatedServer(ServerConfig(policy=static_idio()))
        assert server.steering.static_mlc
        server.steering.steer(IdioTag(dest_core=0), 0x1000, 0)
        assert server.steering.decisions["mlc_prefetch"] == 1


class TestTrafficInjection:
    def test_bursty_defaults_to_ring_size(self):
        experiment = Experiment(server=ServerConfig(ring_size=64))
        assert experiment.traffic_profile(0).packets_per_burst == 64
        server = SimulatedServer(experiment.server)
        server.start()
        count = server.inject_traffic(
            [experiment.traffic_profile(i) for i in range(len(server.generators))]
        )
        assert count == 128  # ring size per NF core x 2 cores

    def test_steady_count_scales_with_duration(self):
        server = SimulatedServer(ServerConfig(ring_size=64))
        server.start()
        count = server.inject_traffic(
            [SteadyProfile(10.0, units.microseconds(123))] * 2
        )
        assert count == 2 * 100  # 123 us / 1.2304 us per packet per core

    def test_one_profile_per_generator(self):
        server = SimulatedServer(ServerConfig(ring_size=64))
        with pytest.raises(ValueError, match="1 traffic profiles for 2 generators"):
            server.inject_traffic([SteadyProfile(10.0, units.microseconds(10))])

    def test_run_until_drained_completes(self):
        server = SimulatedServer(ServerConfig(ring_size=32))
        server.start()
        offer_bursts(server, packets_per_burst=8)
        server.run_until_drained(units.milliseconds(2))
        assert server.all_packets_drained()
        assert len(server.completed_packets()) == 16

    def test_poisson_injection(self):
        server = SimulatedServer(ServerConfig(ring_size=64))
        server.start()
        count = server.inject_traffic(
            [PoissonProfile(10.0, units.microseconds(200), seed=4 + i) for i in range(2)]
        )
        server.run_until_drained(units.milliseconds(2))
        assert count > 0
        assert len(server.completed_packets()) == count

    def test_imix_injection(self):
        server = SimulatedServer(ServerConfig(ring_size=64))
        server.start()
        count = server.inject_traffic(
            [ImixProfile(2.0, units.microseconds(300), seed=4 + i) for i in range(2)]
        )
        server.run_until_drained(units.milliseconds(2))
        sizes = {p.size_bytes for p in server.completed_packets()}
        assert count > 0
        assert sizes <= {64, 594, 1518}
