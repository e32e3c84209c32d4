"""Rack tier tests: config validation, sweep determinism, and the matrix.

The acceptance bar for the rack tier is the fingerprint identity: a
serial sweep and a warm-pool-sharded sweep of the same seeded rack must
produce byte-identical rack fingerprints, with per-server and aggregate
percentiles present in the summary.
"""

import pytest

from repro.core.policies import idio
from repro.harness.experiment import ExperimentSummary
from repro.harness.matrix import SweepResult
from repro.harness.runner import shutdown_pool
from repro.harness.server import ServerConfig
from repro.obs.events import LaneMark, LaneSeries
from repro.obs.trace import TraceRecorder
from repro.rack import (
    RACK_TRAFFIC_KINDS,
    RackConfig,
    SimulatedRack,
    aggregate,
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
        exps = rack.matrix().experiments
        assert len(exps) == 4
        assert [e.name for e in exps] == [f"rack-s{i:02d}" for i in range(4)]
        # Per-server traffic seeds come from distinct seeded streams.
        seeds = {e.traffic_seed for e in exps}
        assert len(seeds) == 4

    def test_rate_split_follows_flow_share(self):
        config = small_config()
        rack = SimulatedRack(config)
        exps = rack.matrix().experiments
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
        rack = SimulatedRack(small_config(server=ServerConfig(checked_mode=True)))
        assert all(exp.server.checked_mode for exp in rack.matrix().experiments)

    def test_matrix_has_one_cell_per_server(self):
        matrix = SimulatedRack(small_config()).matrix()
        assert matrix.axes == ("server",)
        assert matrix.keys == [(i,) for i in range(4)]
        assert len(matrix.experiments) == len(matrix.keys)


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
        assert [c.digest for c in serial.cells] == [
            c.digest for c in sharded.cells
        ]

    def test_summary_shape(self):
        result = run_rack(small_config())
        assert isinstance(result, SweepResult)
        assert [c.server for c in result.cells] == [0, 1, 2, 3]
        rack = aggregate(result)
        assert rack["completed"] == sum(c.summary.completed for c in result.cells)
        assert rack["offered"] == sum(c.summary.offered_packets for c in result.cells)
        # Percentiles present per server and in aggregate.
        for cell in result.cells:
            percentiles = cell.to_json()["percentiles_us"]
            assert None not in percentiles.values()
        p = rack["percentiles_us"]
        assert p["p50"] is not None
        assert p["p50"] <= p["p95"] <= p["p99"]
        assert len(result.fingerprint) == 64

    def test_render_and_json(self):
        result = run_rack(small_config(num_servers=2, total_flows=256))
        text = result.render()
        assert "s00" in text and "s01" in text and "rack" in text
        blob = result.to_json()
        assert blob["num_servers"] == 2
        assert [cell["server"] for cell in blob["cells"]] == [0, 1]
        assert blob["fingerprint"] == result.fingerprint
        assert "p99" in blob["aggregate"]["percentiles_us"]

    def test_seed_changes_fingerprint(self):
        a = run_rack(small_config(seed=0))
        b = run_rack(small_config(seed=1))
        assert a.fingerprint != b.fingerprint

    def test_diurnal_profile_runs(self):
        result = run_rack(
            small_config(num_servers=2, total_flows=256, traffic="diurnal")
        )
        assert aggregate(result)["completed"] > 0

    def test_checked_mode_rack(self):
        config = small_config(
            num_servers=2, total_flows=256, server=ServerConfig(checked_mode=True)
        )
        rack = SimulatedRack(config)
        assert aggregate(rack.run())["completed"] > 0


class TestRackLanes:
    def test_completion_marks_carry_server_digests(self):
        result = SimulatedRack(small_config(num_servers=2, total_flows=256)).run()
        marks = [lane for lane in result.lanes() if isinstance(lane, LaneMark)]
        assert [m.process for m in marks] == ["server-0", "server-1"]
        assert [m.args["fingerprint"] for m in marks] == [
            c.digest for c in result.cells
        ]

    def test_lane_series_only_when_asked(self, monkeypatch):
        timelines = []
        original = ExperimentSummary.timeline

        def counting(self, *args, **kwargs):
            timelines.append(self.experiment.name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ExperimentSummary, "timeline", counting)
        result = SimulatedRack(small_config(num_servers=2, total_flows=256)).run()
        result.render()
        result.to_json()
        assert timelines == []
        series = [lane for lane in result.lanes() if isinstance(lane, LaneSeries)]
        assert series, "no lane series built on request"
        assert len(timelines) == len(series)
        assert {s.process for s in series} == {"server-0", "server-1"}
        for s in series:
            assert s.unit == "mtps"
            assert all(len(point) == 2 for point in s.points)

    def test_trace_recorder_renders_per_server_processes(self, tmp_path):
        result = SimulatedRack(small_config(num_servers=2, total_flows=256)).run()
        recorder = TraceRecorder().add_lanes(result.lanes())
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
