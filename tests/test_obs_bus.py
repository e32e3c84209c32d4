"""The observability plane: event bus, typed events, trace recorder."""

import json

import pytest

from repro.core.policies import idio
from repro.harness.experiment import Experiment, run_experiment
from repro.harness.server import ServerConfig
from repro.mem import DMA_WRITE, INVALIDATE, MemoryTransaction
from repro.mem.cache import CacheConfig
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.mem.line import LINE_SIZE
from repro.mem.transaction import PREFETCH_FILL, Hop
from repro.obs import EventBus, TraceRecorder
from repro.obs.events import LlcWritebackEvent, MlcWritebackEvent, PmdBatchEvent
from repro.obs.trace import categorize, merge_latency_breakdowns
from tests.memtxn import cpu_access, pcie_write


class TestEventBus:
    def test_publish_reaches_subscribers_in_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(MlcWritebackEvent, lambda e: seen.append(("a", e.core)))
        bus.subscribe(MlcWritebackEvent, lambda e: seen.append(("b", e.core)))
        bus.publish(MlcWritebackEvent(3, 100))
        assert seen == [("a", 3), ("b", 3)]

    def test_topics_are_isolated_by_type(self):
        bus = EventBus()
        seen = []
        bus.subscribe(MlcWritebackEvent, seen.append)
        bus.publish(LlcWritebackEvent(0x40, 1))
        assert seen == []

    def test_live_list_is_stable(self):
        bus = EventBus()
        live = bus.live(PmdBatchEvent)
        assert live == []
        handler = lambda e: None  # noqa: E731
        bus.subscribe(PmdBatchEvent, handler)
        assert live == [handler]  # same list object, mutated in place
        bus.unsubscribe(PmdBatchEvent, handler)
        assert live == []

    def test_unsubscribe_unknown_is_noop(self):
        bus = EventBus()
        bus.unsubscribe(MlcWritebackEvent, lambda e: None)

    def test_has_subscribers_and_topics(self):
        bus = EventBus()
        assert not bus.has_subscribers(MlcWritebackEvent)
        bus.subscribe(MlcWritebackEvent, lambda e: None)
        assert bus.has_subscribers(MlcWritebackEvent)
        assert not bus.has_subscribers(PmdBatchEvent)


def _evicting_hierarchy():
    """One core, a one-set 2-way MLC over a one-set 2-way LLC: a store to
    each of ``WRITEBACK_STORES`` makes three MLC writebacks (each a
    dirty victim into the LLC) and one LLC writeback to DRAM."""
    return MemoryHierarchy(
        HierarchyConfig(
            num_cores=1,
            mlc=CacheConfig("mlc", 2 * LINE_SIZE, 2, 1),
            llc=CacheConfig("llc", 2 * LINE_SIZE, 2, 1),
            ddio_ways=1,
        )
    )


WRITEBACK_STORES = [i * LINE_SIZE for i in range(5)]


class TestHierarchyPublishing:
    def test_stats_subscriber_counts_writebacks(self):
        """The hierarchy counts real MLC and LLC evictions itself, with
        nothing subscribed to the bus."""
        h = _evicting_hierarchy()
        for now, addr in enumerate(WRITEBACK_STORES):
            cpu_access(h, 0, addr, True, now)
        counters = h.stats.counters
        assert counters.get("mlc_writebacks") == 3
        assert counters.get("mlc_writebacks_c0") == 3
        assert counters.get("llc_writebacks") == 1
        assert h.stats.events.timestamps("mlc_writebacks") == [2, 3, 4]
        assert h.stats.events.timestamps("llc_writebacks") == [4]

    def test_no_writeback_event_built_without_a_subscriber(self, monkeypatch):
        built = []
        for event_type in (MlcWritebackEvent, LlcWritebackEvent):
            init = event_type.__init__

            def counted_init(event, *args, init=init):
                built.append(event)
                init(event, *args)

            monkeypatch.setattr(event_type, "__init__", counted_init)
        h = _evicting_hierarchy()
        for now, addr in enumerate(WRITEBACK_STORES):
            cpu_access(h, 0, addr, True, now)
        assert built == []
        h.bus.subscribe(MlcWritebackEvent, lambda e: None)
        cpu_access(h, 0, 5 * LINE_SIZE, True, 5)
        assert [type(e) for e in built] == [MlcWritebackEvent]

    def test_subscribers_see_counters_already_bumped(self):
        h = _evicting_hierarchy()
        counters = h.stats.counters
        seen = []
        h.bus.subscribe(
            MlcWritebackEvent,
            lambda e: seen.append(
                ("mlc", counters.get("mlc_writebacks"), counters.get("mlc_writebacks_c0"))
            ),
        )
        h.bus.subscribe(
            LlcWritebackEvent, lambda e: seen.append(("llc", counters.get("llc_writebacks")))
        )
        for now, addr in enumerate(WRITEBACK_STORES):
            cpu_access(h, 0, addr, True, now)
        assert seen == [("mlc", 1, 1), ("mlc", 2, 2), ("mlc", 3, 3), ("llc", 1)]

    def test_transactions_published_when_subscribed(self):
        """Completed transactions go to the hierarchy's observers, not
        the bus."""
        h = MemoryHierarchy(HierarchyConfig(num_cores=1))
        seen = []
        h.observe(seen.append)
        cpu_access(h, 0, 0x1000, False, 0)
        assert len(seen) == 1 and seen[0].level == "dram"
        assert not h.bus.has_subscribers(MemoryTransaction)


class TestCategorize:
    @pytest.mark.parametrize(
        "kind,hop,expected",
        [
            (DMA_WRITE, Hop("llc", "fill", 0), "ddio-fill"),
            (DMA_WRITE, Hop("llc", "update", 0), "ddio-update"),
            (DMA_WRITE, Hop("dram", "write", 0), "direct-dram-write"),
            (PREFETCH_FILL, Hop("mlc", "fill", 0), "mlc-steer-fill"),
            (INVALIDATE, Hop("mlc", "drop", 0), "invalidate-drop"),
            (INVALIDATE, Hop("llc", "drop", 0), "invalidate-drop"),
            (DMA_WRITE, Hop("mlc", "inval", 0), DMA_WRITE),
        ],
    )
    def test_mechanism_categories(self, kind, hop, expected):
        assert categorize(MemoryTransaction(kind, 0x40, 0), hop) == expected


class TestTraceRecorder:
    def make(self, **kwargs):
        h = MemoryHierarchy(HierarchyConfig(num_cores=1))
        rec = TraceRecorder(**kwargs).attach(h)
        return h, rec

    def test_attach_enables_hop_recording(self):
        h, rec = self.make()
        txn = MemoryTransaction(DMA_WRITE, 0x1000, 0)
        h.access(txn)
        assert [(hop.component, hop.action) for hop in txn.hops] == [("llc", "fill")]
        assert rec.transactions == 1
        assert rec.category_counts.get("ddio-fill") == 1

    def test_detach_restores_hierarchy(self):
        h, rec = self.make()
        rec.detach()
        txn = MemoryTransaction(DMA_WRITE, 0x1000, 0)
        h.access(txn)
        assert txn.hops == [] and txn.level == "llc"
        assert "_run_dma_write" not in vars(h)  # bare handlers are back
        assert rec.transactions == 0
        rec.detach()  # second detach is a no-op

    def test_double_attach_rejected(self):
        h, rec = self.make()
        with pytest.raises(RuntimeError):
            rec.attach(h)

    def test_max_events_bounds_memory(self):
        h, rec = self.make(max_events=2)
        for i in range(5):
            pcie_write(h, 0x1000 + i * 64, i)
        assert len(rec.trace_events) == 2
        assert rec.dropped_events == 3
        assert rec.transactions == 5  # accounting keeps going

    def test_chrome_trace_shape(self, tmp_path):
        h, rec = self.make()
        pcie_write(h, 0x1000, 0)
        cpu_access(h, 0, 0x1000, False, 10)
        path = tmp_path / "trace.json"
        count = rec.export(str(path))
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert len(events) == count
        phases = {e["ph"] for e in events}
        assert "M" in phases and "X" in phases  # metadata + complete events
        for e in events:
            assert isinstance(e["name"], str) and "pid" in e
            if e["ph"] == "X":
                assert e["dur"] >= 0 and "cat" in e
        lanes = {
            e["args"]["name"] for e in events if e["name"] == "thread_name"
        }
        assert {"mlc", "llc", "dram"} <= lanes
        assert doc["otherData"]["transactions"] == 2

    def test_latency_breakdown(self):
        h, rec = self.make()
        assert rec.latency_breakdown_ns() == {}
        cpu_access(h, 0, 0x1000, False, 0)
        breakdown = rec.latency_breakdown_ns()
        assert breakdown["mean_dram_ns"] > 0
        assert merge_latency_breakdowns({"x": 1.0}, rec)["x"] == 1.0
        assert "mean_dram_ns" in merge_latency_breakdowns({}, rec)
        assert merge_latency_breakdowns({"x": 1.0}, None) == {"x": 1.0}

    def test_instant_events(self):
        h, rec = self.make()
        h.bus.publish(MlcWritebackEvent(0, 5))
        h.bus.publish(PmdBatchEvent(0, 32, 6))
        assert rec.category_counts.get("mlc-writeback") == 1
        assert rec.category_counts.get("pmd-batch") == 1
        assert "transactions traced" in rec.summary_line()


class TestServerTracing:
    def test_traced_run_produces_mechanism_categories(self):
        experiment = Experiment(
            name="trace-test",
            server=ServerConfig(
                policy=idio(),
                apps=["touchdrop", "l2fwd-payload-drop"],
                num_nf_cores=2,
                ring_size=64,
                trace_enabled=True,
            ),
            traffic="bursty",
            burst_rate_gbps=100.0,
        )
        result = run_experiment(experiment)
        rec = result.server.trace_recorder
        assert rec is not None
        for category in (
            "ddio-fill",
            "mlc-steer-fill",
            "direct-dram-write",
            "invalidate-drop",
        ):
            assert rec.category_counts.get(category, 0) > 0, category
        # The component breakdown folds into the result's latency split.
        breakdown = result.latency_breakdown_ns()
        assert "mean_queueing_ns" in breakdown
        assert breakdown.get("mean_dram_ns", 0.0) > 0

    def test_tracing_off_by_default(self):
        server_cfg = ServerConfig(ring_size=32)
        from repro.harness.server import SimulatedServer

        server = SimulatedServer(server_cfg)
        assert server.trace_recorder is None
        txn = MemoryTransaction(DMA_WRITE, 0x1000, 0)
        server.hierarchy.access(txn)
        assert txn.hops == []
