"""Unit tests for the IDIO controller (Alg. 1 data + control planes)."""

import pytest

from repro.core.config import AVERAGE_WINDOW_SAMPLES, IDIOConfig
from repro.core.controller import IDIOController
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.pcie.tlp import IdioTag
from repro.sim import Simulator, units


def make_controller(static=False, prefetch=True, direct_dram=True, mlc_thr=50.0):
    sim = Simulator()
    h = MemoryHierarchy(HierarchyConfig(num_cores=2))
    ctl = IDIOController(
        sim,
        h,
        config=IDIOConfig(mlc_threshold_mtps=mlc_thr),
        static_mlc=static,
        prefetch_enabled=prefetch,
        direct_dram_enabled=direct_dram,
    )
    return sim, h, ctl


class TestDataPlane:
    def test_header_always_prefetched(self):
        sim, h, ctl = make_controller()
        placement = ctl.steer(IdioTag(dest_core=0, is_header=True), 0x1000, 0)
        assert placement == "llc"
        assert ctl.decisions["header_prefetch"] == 1
        assert len(ctl.prefetchers[0]) == 1

    def test_class1_goes_to_dram(self):
        sim, h, ctl = make_controller()
        placement = ctl.steer(IdioTag(app_class=1), 0x1000, 0)
        assert placement == "dram"
        assert ctl.decisions["direct_dram"] == 1

    def test_class1_header_still_prefetched(self):
        """Alg. 1 checks isHeader before appClass: headers of class-1
        packets stay on the cache path (short use distance)."""
        sim, h, ctl = make_controller()
        placement = ctl.steer(IdioTag(app_class=1, is_header=True), 0x1000, 0)
        assert placement == "llc"

    def test_class1_to_llc_when_direct_dram_disabled(self):
        sim, h, ctl = make_controller(direct_dram=False)
        assert ctl.steer(IdioTag(app_class=1), 0x1000, 0) == "llc"

    def test_payload_stays_in_llc_when_status_llc(self):
        sim, h, ctl = make_controller()
        placement = ctl.steer(IdioTag(dest_core=0), 0x1000, 0)
        assert placement == "llc"
        assert ctl.decisions["llc"] == 1
        assert len(ctl.prefetchers[0]) == 0  # no hint

    def test_burst_flips_status_to_mlc(self):
        sim, h, ctl = make_controller()
        # The burst-flagged line resets the FSM and is itself steered to
        # the MLC (Alg. 1 line 3 runs before the placement decision).
        ctl.steer(IdioTag(dest_core=0, is_burst=True), 0x1000, 0)
        placement = ctl.steer(IdioTag(dest_core=0), 0x1040, 0)
        assert placement == "llc"  # data still lands in LLC...
        assert ctl.decisions["mlc_prefetch"] == 2  # ...plus prefetch hints

    def test_static_mode_always_steers_mlc(self):
        sim, h, ctl = make_controller(static=True)
        ctl.steer(IdioTag(dest_core=1), 0x1000, 0)
        assert ctl.decisions["mlc_prefetch"] == 1

    def test_burst_only_affects_target_core(self):
        sim, h, ctl = make_controller()
        ctl.steer(IdioTag(dest_core=0, is_burst=True), 0x1000, 0)
        ctl.steer(IdioTag(dest_core=1), 0x2000, 0)
        assert ctl.decisions["llc"] == 1  # core 1 unaffected

    def test_prefetch_disabled_controller(self):
        sim, h, ctl = make_controller(prefetch=False)
        ctl.steer(IdioTag(dest_core=0, is_header=True), 0x1000, 0)
        assert len(ctl.prefetchers[0]) == 0


class TestControlPlane:
    def test_pressure_disables_steering_after_three_intervals(self):
        sim, h, ctl = make_controller(mlc_thr=50.0)
        ctl.steer(IdioTag(dest_core=0, is_burst=True), 0x1000, 0)
        assert ctl.fsm[0].steers_to_mlc
        # Count 100 MLC writebacks per 1 us interval for 3 intervals.
        def pressure():
            h.stats.bump("mlc_writebacks_c0", sim.now, 100)
        for i in range(3):
            sim.schedule_at(units.microseconds(i) + 1, pressure)
        sim.run(until=units.microseconds(3) + 2)
        assert not ctl.fsm[0].steers_to_mlc

    def test_low_pressure_keeps_steering(self):
        sim, h, ctl = make_controller(mlc_thr=50.0)
        ctl.steer(IdioTag(dest_core=0, is_burst=True), 0x1000, 0)
        sim.run(until=units.microseconds(5))
        assert ctl.fsm[0].steers_to_mlc

    def test_mlc_wb_counter_resets_each_interval(self):
        sim, h, ctl = make_controller()
        h.stats.bump("mlc_writebacks_c0", 0)
        sim.run(until=units.microseconds(1) + 1)
        assert ctl.mlc_wb_acc[0] == 1
        sim.run(until=units.microseconds(2) + 1)
        assert ctl.mlc_wb_acc[0] == 1  # a quiet interval samples 0

    def test_average_window_rolls_over(self):
        # One writeback in each of the first four 1 us samples: the
        # average stays 0 until the 8192-sample window closes.
        sim, h, ctl = make_controller()
        def tick_wb():
            h.stats.bump("mlc_writebacks_c0", sim.now)
        for i in range(4):
            sim.schedule_at(units.microseconds(i) + 1, tick_wb)
        sim.run(until=units.microseconds(AVERAGE_WINDOW_SAMPLES - 1) + 2)
        assert ctl.mlc_wb_avg[0] == 0.0
        assert ctl.mlc_wb_acc[0] == 4
        sim.run(until=units.microseconds(AVERAGE_WINDOW_SAMPLES) + 2)
        assert ctl.mlc_wb_avg[0] == pytest.approx(4 / AVERAGE_WINDOW_SAMPLES)
        assert ctl.mlc_wb_acc[0] == 0

    def test_threshold_units(self):
        cfg = IDIOConfig(mlc_threshold_mtps=50.0)
        # 50 MTPS at a 1 us interval = 50 transactions/interval.
        assert cfg.mlc_threshold_per_interval == pytest.approx(50.0)

    def test_stop_halts_control_plane(self):
        sim, h, ctl = make_controller()
        ctl.stop()
        sim.run(until=units.microseconds(10))  # no infinite periodic task


class TestConfigValidation:
    def test_defaults_valid(self):
        IDIOConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mlc_threshold_mtps": -1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            IDIOConfig(**kwargs).validate()
