"""Rack tier tests: config validation, sweep determinism, and the fold.

The acceptance bar for the rack tier is the fingerprint identity: a
serial sweep and a warm-pool-sharded sweep of the same seeded rack must
produce byte-identical rack fingerprints, with per-server and aggregate
percentiles present in the summary.
"""

import pytest

from repro.core.policies import idio
from repro.harness.runner import shutdown_pool
from repro.obs.events import LaneSeries, ServerCompletedEvent
from repro.obs.trace import TraceRecorder
from repro.rack import (
    RACK_TRAFFIC_KINDS,
    RackConfig,
    RackSummary,
    SimulatedRack,
    run_rack,
    server_rng,
)


def small_config(**overrides):
    defaults = dict(
        num_servers=4, total_flows=1024, offered_gbps=40.0, duration_us=50.0
    )
    defaults.update(overrides)
    return RackConfig(**defaults)


class TestRackConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_servers": 0},
            {"total_flows": 0},
            {"steering": "toeplitz"},
            {"traffic": "bursty"},
            {"offered_gbps": 0.0},
            {"duration_us": -1.0},
            {"diurnal_peak_ratio": 0.5},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            small_config(**kwargs)

    def test_rack_traffic_kinds_exclude_bursty(self):
        assert "bursty" not in RACK_TRAFFIC_KINDS

    def test_with_policy(self):
        config = small_config().with_policy(idio())
        assert config.server.policy.name == "idio"
        assert config.num_servers == 4

    def test_flows_hint(self):
        assert small_config().flows_hint() == 256


class TestServerRng:
    def test_streams_decorrelated_and_reproducible(self):
        a = server_rng(0, 0).getrandbits(32)
        assert server_rng(0, 0).getrandbits(32) == a
        assert server_rng(0, 1).getrandbits(32) != a
        assert server_rng(1, 0).getrandbits(32) != a

    def test_negative_server_rejected(self):
        with pytest.raises(ValueError):
            server_rng(0, -1)


class TestSimulatedRack:
    def test_flow_counts_cover_population(self):
        rack = SimulatedRack(small_config())
        assert sum(rack.flow_counts) == 1024
        assert len(rack.flow_counts) == 4

    def test_experiments_one_per_server(self):
        rack = SimulatedRack(small_config())
        exps = rack.experiments()
        assert len(exps) == 4
        assert [e.name for e in exps] == [f"rack-s{i:02d}" for i in range(4)]
        # Per-server traffic seeds come from distinct seeded streams.
        seeds = {e.traffic_seed for e in exps}
        assert len(seeds) == 4

    def test_rate_split_follows_flow_share(self):
        config = small_config()
        rack = SimulatedRack(config)
        exps = rack.experiments()
        per_nf_total = sum(
            e.steady_rate_gbps_per_nf * config.server.num_nf_cores for e in exps
        )
        assert per_nf_total == pytest.approx(config.offered_gbps)

    def test_zero_flow_server_gets_idle_experiment(self):
        # 8 servers, 4 flows under rendezvous: some servers draw nothing.
        config = small_config(
            num_servers=8, total_flows=4, steering="rendezvous"
        )
        rack = SimulatedRack(config)
        assert 0 in rack.flow_counts
        idle = rack.server_experiment(rack.flow_counts.index(0))
        assert idle.steady_duration == 0

    def test_with_checked_servers(self):
        rack = SimulatedRack(small_config()).with_checked_servers()
        assert rack.config.server.checked_mode

    def test_fold_rejects_count_mismatch(self):
        rack = SimulatedRack(small_config())
        with pytest.raises(ValueError):
            rack.fold([])


class TestRackSweep:
    def test_serial_matches_pool_sharded(self):
        """The acceptance criterion: N>=4 servers, serial vs warm-pool."""
        config = small_config(num_servers=4)
        try:
            serial = run_rack(config, jobs=1)
            sharded = run_rack(config, jobs=4)
        finally:
            shutdown_pool()
        assert serial.fingerprint == sharded.fingerprint
        assert [l.digest for l in serial.lanes] == [
            l.digest for l in sharded.lanes
        ]

    def test_summary_shape(self):
        summary = run_rack(small_config())
        assert isinstance(summary, RackSummary)
        assert len(summary.lanes) == 4
        assert summary.completed == sum(l.completed for l in summary.lanes)
        assert summary.offered_packets == sum(l.offered for l in summary.lanes)
        # Percentiles present per server and in aggregate.
        for lane in summary.lanes:
            assert lane.p50_us is not None
            assert lane.p95_us is not None
            assert lane.p99_us is not None
        assert summary.p50_us is not None
        assert summary.p50_us <= summary.p95_us <= summary.p99_us
        assert len(summary.fingerprint) == 64

    def test_render_and_json(self):
        summary = run_rack(small_config(num_servers=2, total_flows=256))
        text = summary.render()
        assert "s00" in text and "s01" in text and "rack" in text
        blob = summary.to_json()
        assert blob["num_servers"] == 2
        assert len(blob["servers"]) == 2
        assert blob["fingerprint"] == summary.fingerprint
        assert "p99" in blob["aggregate"]["percentiles_us"]

    def test_seed_changes_fingerprint(self):
        a = run_rack(small_config(seed=0))
        b = run_rack(small_config(seed=1))
        assert a.fingerprint != b.fingerprint

    def test_diurnal_profile_runs(self):
        summary = run_rack(
            small_config(num_servers=2, total_flows=256, traffic="diurnal")
        )
        assert summary.completed > 0

    def test_checked_mode_rack(self):
        config = small_config(num_servers=2, total_flows=256)
        rack = SimulatedRack(config).with_checked_servers()
        summary = rack.run()
        assert summary.completed > 0


class TestRackLanes:
    def test_completion_events_always_published(self):
        rack = SimulatedRack(small_config(num_servers=2, total_flows=256))
        completed = []
        rack.bus.subscribe(ServerCompletedEvent, completed.append)
        summary = rack.run()
        assert [e.server for e in completed] == [0, 1]
        assert [e.fingerprint for e in completed] == [
            l.digest for l in summary.lanes
        ]

    def test_lane_series_only_when_subscribed(self):
        config = small_config(num_servers=2, total_flows=256)
        rack = SimulatedRack(config)
        series = []
        rack.bus.subscribe(LaneSeries, series.append)
        rack.run()
        assert series, "no lane series published despite a subscriber"
        assert {s.process for s in series} == {"server-0", "server-1"}
        for s in series:
            assert s.unit == "mtps"
            assert all(len(point) == 2 for point in s.points)

    def test_trace_recorder_renders_per_server_processes(self, tmp_path):
        rack = SimulatedRack(small_config(num_servers=2, total_flows=256))
        recorder = TraceRecorder().attach(rack.bus)
        rack.run()
        out = tmp_path / "rack-trace.json"
        count = recorder.export(str(out))
        assert count > 0
        import json

        events = json.loads(out.read_text())["traceEvents"]
        processes = {
            e["args"]["name"]: e["pid"]
            for e in events
            if e.get("name") == "process_name"
        }
        assert processes == {"server-0": 1, "server-1": 2}
        lanes = {
            e["args"]["name"]
            for e in events
            if e.get("name") == "thread_name" and e["pid"] == 1
        }
        assert lanes == {
            "pcie_writes", "mlc_writebacks", "llc_writebacks", "dram_writes",
            "completion",
        }
        done = [e for e in events if e["ph"] == "i"]
        assert [e["pid"] for e in done] == [1, 2]
        recorder.detach()
        assert not rack.bus.has_subscribers(LaneSeries)
