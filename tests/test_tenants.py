"""Tenant-tier tests: flow tagging, RNG streams, IOCA apportionment,
the way-quota invariant, attribution determinism, and cache keying.

The properties under test are the ones the isolation matrix rests on:
per-tenant flows round-trip through the lane encoding, every tenant
draws from its own seeded stream, the controller never mints or loses a
way, a serial and a pool-sharded sweep fingerprint byte-identically,
and a tenant-config change can never replay a stale cache entry.
"""

import dataclasses
import json

import pytest

import repro
from repro.analysis.sanitizer import InvariantViolation
from repro.cache.store import ResultCache
from repro.core.ioca import IOCAController
from repro.net.flow import FLOW_LANE_SPAN, flow_tenant, make_tenant_flow
from repro.tenants.config import TenantConfig, TenantSet, tenant_rng
from repro.tenants.scenarios import (
    TENANT_DDIO_WAYS,
    TENANT_MIXES,
    tenant_experiment,
    tenant_mix,
    tenant_server,
)
from repro.tenants.sweep import run_tenants


def _mix(tenants=2, intensity=1.0, seed=1234):
    return tenant_mix("noisy-neighbor", tenants=tenants, intensity=intensity, seed=seed)


class TestTenantFlows:
    @pytest.mark.parametrize("tenant", [0, 1, 7, 15])
    def test_round_trip(self, tenant):
        for slot in (0, 1, FLOW_LANE_SPAN - 1):
            assert flow_tenant(make_tenant_flow(tenant, slot)) == tenant

    def test_slot_out_of_lane_raises(self):
        with pytest.raises(ValueError):
            make_tenant_flow(0, FLOW_LANE_SPAN)

    def test_tenants_never_share_a_flow(self):
        flows = {make_tenant_flow(t, s) for t in range(4) for s in range(8)}
        assert len(flows) == 4 * 8


class TestTenantRng:
    def test_same_seed_same_tenant_same_stream(self):
        a = [tenant_rng(99, 3).random() for _ in range(4)]
        b = [tenant_rng(99, 3).random() for _ in range(4)]
        assert a == b

    def test_tenants_get_distinct_streams(self):
        draws = {tuple(tenant_rng(99, t).random() for _ in range(3)) for t in range(8)}
        assert len(draws) == 8

    def test_stream_is_independent_of_neighbor_count(self):
        """Tenant 0's draws must not depend on how many tenants exist."""
        alone = tenant_rng(7, 0).random()
        crowded = tenant_rng(7, 0).random()  # nothing else consulted
        assert alone == crowded


class TestTenantMixes:
    def test_unknown_mix_raises(self):
        with pytest.raises(ValueError, match="unknown tenant mix"):
            tenant_mix("quiet-street")

    @pytest.mark.parametrize("name", TENANT_MIXES)
    def test_every_mix_builds(self, name):
        ts = tenant_mix(name, tenants=3)
        assert len(ts.tenants) == 3

    def test_intensity_scales_aggressors_not_victims(self):
        lo, hi = _mix(intensity=0.5), _mix(intensity=2.0)
        assert lo.tenants[0] == hi.tenants[0]  # victim untouched
        assert hi.tenants[1].rate_gbps > lo.tenants[1].rate_gbps

    def test_noisy_neighbor_roles(self):
        ts = _mix(tenants=3)
        assert ts.victims() == (0,)
        assert ts.aggressors() == (1, 2)
        assert all(ts.tenants[i].antagonist for i in ts.aggressors())


class TestTenantTrafficProfiles:
    def test_one_profile_per_flow_in_tenant_blocks(self):
        ts = _mix(tenants=3)
        profiles = ts.traffic_profiles(repro.units.microseconds(50))
        kinds = [type(p).__name__ for p in profiles]
        assert kinds == ["BurstProfile", "HeavyTailProfile", "HeavyTailProfile"]

    def test_a_tenants_seeds_ignore_its_neighbors(self):
        """Tenant 2's arrivals must not move when tenant 1 turns unseeded."""
        duration = repro.units.microseconds(50)
        base = _mix(tenants=3)
        quiet = dataclasses.replace(base.tenants[1], traffic="steady")
        changed = dataclasses.replace(base, tenants=(base.tenants[0], quiet, base.tenants[2]))
        assert base.traffic_profiles(duration)[2] == changed.traffic_profiles(duration)[2]
        assert base.traffic_profiles(duration)[1] != changed.traffic_profiles(duration)[1]

    def test_bad_shape_fails_when_the_tenant_is_built(self):
        with pytest.raises(ValueError, match="alpha must exceed 1"):
            TenantConfig(tenant_id=0, name="t0", traffic="heavytail", heavy_tail_alpha=1.0)
        with pytest.raises(ValueError, match="unknown tenant traffic 'heavy-tail'"):
            TenantConfig(tenant_id=0, name="t0", traffic="heavy-tail")


class TestIOCAApportionment:
    def _server(self, tenants=2, policy=None):
        ts = _mix(tenants=tenants)
        return repro.build_server(tenant_server(ts, policy or repro.ioca())), ts

    def test_initial_allocation_conserves_the_budget(self):
        server, ts = self._server(tenants=3)
        controller = server.steering
        assert controller is not None
        alloc = controller.reallocations[-1]
        assert sum(alloc) == TENANT_DDIO_WAYS
        for count, tenant in zip(alloc, ts):
            assert count >= tenant.llc_way_quota

    def test_every_reallocation_conserves_the_budget(self):
        server, ts = self._server(tenants=2)
        duration = repro.units.microseconds(80)
        server.inject_traffic(ts.traffic_profiles(duration))
        server.run_until_drained(duration + repro.units.microseconds(100))
        server.stop()
        controller = server.steering
        assert controller.reallocations, "controller never applied a mask"
        for alloc in controller.reallocations:
            assert sum(alloc) == TENANT_DDIO_WAYS

    def test_largest_remainder_is_deterministic_with_id_tiebreak(self):
        server, _ = self._server(tenants=3)
        controller = server.steering
        # Equal weights, 1 spare way after 3 quota floors: tenant 0 wins.
        assert controller._apportion([1.0, 1.0, 1.0]) == [2, 1, 1]
        # All the demand on tenant 2: the spare way follows it.
        assert controller._apportion([0.0, 0.0, 9.0]) == [1, 1, 2]

    def test_quota_overflow_is_rejected(self):
        ts = TenantSet(
            tenants=tuple(
                TenantConfig(tenant_id=i, name=f"t{i}", llc_way_quota=3)
                for i in range(2)
            )
        )
        server = repro.build_server(tenant_server(ts, repro.idio()))
        with pytest.raises(ValueError, match="way quotas"):
            IOCAController(server.sim, server.hierarchy, ts)


class TestWayQuotaInvariant:
    """Checked mode must catch a controller that mints or loses ways."""

    def _checked_server(self):
        ts = _mix(tenants=2)
        return repro.build_server(tenant_server(ts, repro.ioca(), checked=True))

    def test_clean_allocation_passes(self):
        server = self._checked_server()
        assert server.sanitizer is not None
        server.sanitizer.check_all()

    def test_overlapping_masks_are_caught(self):
        # set_tenant_io_ways validates its own arguments, so a buggy
        # controller is modeled by corrupting the mask table directly.
        server = self._checked_server()
        llc = server.hierarchy.llc
        llc._tenant_io_masks[0] = [0, 1]
        llc._tenant_io_masks[1] = [1, 2]  # way 1 claimed twice
        with pytest.raises(InvariantViolation, match="tenant-way-quota"):
            server.sanitizer.check_all()

    def test_way_outside_the_partition_is_caught(self):
        server = self._checked_server()
        llc = server.hierarchy.llc
        llc._tenant_io_masks[0] = [llc.ddio_ways]  # first CPU way
        with pytest.raises(InvariantViolation, match="outside"):
            server.sanitizer.check_all()

    def test_starved_quota_floor_is_caught(self):
        server = self._checked_server()
        llc = server.hierarchy.llc
        llc._tenant_io_masks[0] = []  # below tenant 0's floor of 1
        with pytest.raises(InvariantViolation, match="quota floor"):
            server.sanitizer.check_all()


class TestAttributionDeterminism:
    def test_serial_and_pool_sweeps_fingerprint_identically(self):
        kwargs = dict(
            policies=[repro.ddio(), repro.ioca()],
            intensities=(0.5, 1.5),
            duration_us=60.0,
            seed=7,
        )
        serial = run_tenants(jobs=1, **kwargs)
        pooled = run_tenants(jobs=2, **kwargs)
        assert serial.exit_code == 0 and pooled.exit_code == 0
        assert serial.fingerprint == pooled.fingerprint
        # The fingerprint covers tenant_stats (via each cell's summary
        # digest), so attribution itself is what just matched.
        for cell in serial.cells:
            assert set(cell.tenant_stats) == {0, 1}
            assert cell.stat(0, "completed") > 0

    def test_tenant_stats_fold_into_the_summary_fingerprint(self):
        exp = tenant_experiment(_mix(), repro.ddio(), "fp", duration_us=60.0)
        summary = repro.run_experiment(exp).summary()
        from repro.analysis.determinism import fingerprint_digest

        base = fingerprint_digest(summary)
        summary.tenant_stats[0]["completed"] += 1
        assert fingerprint_digest(summary) != base


class TestTenantCacheKeying:
    def _experiment(self, quota=1):
        ts = _mix()
        victim = dataclasses.replace(ts.tenants[0], llc_way_quota=quota)
        ts = dataclasses.replace(ts, tenants=(victim,) + ts.tenants[1:])
        return tenant_experiment(ts, repro.idio(), "cache-key", duration_us=60.0)

    def test_quota_change_moves_the_digest(self, tmp_path):
        cache = ResultCache(tmp_path)
        d1 = cache.digest_for(self._experiment(quota=1))
        d2 = cache.digest_for(self._experiment(quota=2))
        assert d1 is not None and d2 is not None and d1 != d2

    def test_cache_replay_is_byte_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        kwargs = dict(
            policies=[repro.idio()],
            intensities=(1.0,),
            duration_us=60.0,
            seed=11,
        )
        cold = run_tenants(cache=cache, **kwargs)
        warm = run_tenants(cache=cache, **kwargs)
        assert not cold.cells[0].cached
        assert warm.cells[0].cached
        assert warm.fingerprint == cold.fingerprint


class TestTenantTrace:
    def test_trace_out_has_a_process_per_tenant_and_percentile_lanes(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        out = tmp_path / "tenants-trace.json"
        assert main([
            "tenants", "--policies", "ddio,ioca", "--tenants", "2",
            "--intensities", "0.5,2", "--duration-us", "30",
            "--trace-out", str(out),
        ]) == 0
        assert "wrote" in capsys.readouterr().out
        events = json.loads(out.read_text())["traceEvents"]
        processes = {
            e["pid"]: e["args"]["name"]
            for e in events if e["name"] == "process_name"
        }
        assert sorted(processes.values()) == ["tenant-0", "tenant-1"]
        expected = {
            f"{policy}:{stream}"
            for policy in ("ddio", "ioca")
            for stream in ("p50_us", "p95_us", "p99_us")
        }
        for pid in processes:
            lanes = {
                e["args"]["name"] for e in events
                if e["name"] == "thread_name" and e["pid"] == pid
            }
            assert lanes == expected
            samples = [e for e in events if e["ph"] == "C" and e["pid"] == pid]
            # One sample per (lane, intensity), on the scaled intensity axis.
            assert len(samples) == len(expected) * 2
            assert {e["ts"] for e in samples} == {500.0, 2000.0}
            assert all(set(e["args"]) == {"us"} for e in samples)
