"""Builds a complete simulated server for one experiment.

A :class:`SimulatedServer` wires together everything the paper's testbed
contains: NF cores with private caches, the shared non-inclusive LLC with
DDIO ways, DRAM, the PCIe root complex, a multi-queue NIC with Flow
Director, per-core DPDK PMD loops running a network function, optional
LLCAntagonist cores, and the placement policy's steering mechanism (the
IDIO classifier/controller/prefetchers or a related-work baseline).

The default geometry is the paper's scaled gem5 configuration (§III
Obs. 4 / Table I): 3 MB 12-way LLC with 2 DDIO ways, 1 MB 8-way MLC per NF
core, a 256 KB MLC for the antagonist core, 1024-entry rings, 1514 B
packets.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.sanitizer import InvariantSanitizer
from ..core.controller import IDIOController
from ..core.policies import PolicyConfig, SteeringController, TenantPartition, ddio
from ..core.prefetcher import RegulatedMLCPrefetcher
from ..cpu.apps import (
    L2Fwd,
    L2FwdPayloadDrop,
    LLCAntagonist,
    NetworkFunction,
    TouchDrop,
)
from ..cpu.core import Core
from ..cpu.dpdk import RECYCLE_MODES, AntagonistDriver, PollModeDriver
from ..cpu.maintenance import MaintenanceUnit
from ..cpu.mempool import BufferPool
from ..cpu.pagetable import PageTable
from ..faults import FaultEvent, FaultInjectors, FaultPlan
from ..mem.cache import SetAssociativeCache
from ..mem.hierarchy import (
    HierarchyConfig,
    MemoryHierarchy,
    default_llc_config,
    default_mlc_config,
)
from ..mem.line import LINE_SIZE, num_lines
from ..mem.stats import StatsBundle
from ..net.flow import make_flow, make_tenant_flow
from ..net.packet import MTU_FRAME_BYTES, Packet
from ..net.traffic import TrafficGenerator, TrafficProfile
from ..nic.classifier import ClassifierConfig
from ..nic.descriptor import BUFFER_STRIDE, DESCRIPTOR_BYTES
from ..nic.dma import DMAEngine
from ..nic.nic import NIC
from ..obs.trace import TraceRecorder
from ..pcie.root_complex import RootComplex
from ..pcie.tlp import MAX_DEST_CORE
from ..sim import Simulator, units
from ..tenants.config import TenantSet, tenant_rng

APP_FACTORIES: Dict[str, Callable[[], NetworkFunction]] = {
    "touchdrop": TouchDrop,
    "l2fwd": L2Fwd,
    "l2fwd-payload-drop": L2FwdPayloadDrop,
}

#: MLC of every antagonist core: shrunk to 256 KB so the antagonist is
#: LLC-sensitive (§VI).
ANTAGONIST_MLC_BYTES = 256 * 1024


@dataclass
class ServerConfig:
    """Everything needed to instantiate one simulated server.

    Building a config validates it: a bad combination raises
    :class:`ValueError` here, with one message, not inside the run.
    """

    policy: PolicyConfig = field(default_factory=ddio)
    app: str = "touchdrop"
    #: Heterogeneous deployments: one app name per NF core (overrides
    #: ``app``; length must equal ``num_nf_cores``).  Lets class-0 and
    #: class-1 applications share the socket, which is the scenario
    #: selective direct DRAM access (M3) is designed for.
    apps: Optional[List[str]] = None
    num_nf_cores: int = 2
    ring_size: int = 1024
    packet_bytes: int = MTU_FRAME_BYTES
    #: Add an LLCAntagonist core (Fig. 10/12 co-run scenarios).
    antagonist: bool = False
    antagonist_buffer_bytes: int = 2 * 1024 * 1024
    #: LLC geometry (3 MB total, 12 ways, 2 DDIO ways by default).
    llc_bytes: int = 3 * 1024 * 1024
    llc_ways: int = 12
    ddio_ways: int = 2
    llc_inclusive: bool = False
    nf_mlc_bytes: int = 1024 * 1024
    #: CAT-style restriction of each NF core's LLC fills ("_1way" configs
    #: in Fig. 4).  ``None`` = no restriction.
    nf_cat_ways: Optional[int] = None
    #: Buffer recycling mode (§II-B): "run_to_completion" (DPDK default),
    #: "copy" (Linux-stack-style), or "reallocate" (pool swap).
    recycle_mode: str = "run_to_completion"
    #: NUCA slice count for the LLC (0 = monolithic, or the steering
    #: mechanism's own default: CacheDirector pinning builds 8 slices).
    llc_slices: int = 0
    #: NIC ports, each with its own PCIe link (the paper's testbed runs
    #: two 100 GbE ports).  NF core i is served by port (i mod num_nics).
    num_nics: int = 1
    #: Attach a :class:`~repro.obs.trace.TraceRecorder` to the hierarchy
    #: (it observes every transaction, hops recorded — off by default;
    #: tracing costs both time and memory, so it is strictly opt-in).
    trace_enabled: bool = False
    #: Event cap for the recorder when tracing is enabled.
    trace_max_events: int = 2_000_000
    #: Attach the :class:`~repro.analysis.sanitizer.InvariantSanitizer`
    #: (ASan-style runtime invariant checks on every transaction plus
    #: periodic structural barriers).  Off by default: checked mode costs
    #: simulation throughput and exists for tests and ``repro check``.
    checked_mode: bool = False
    #: Transactions between two structural-barrier sweeps in checked mode.
    checked_barrier_interval: int = 4096
    #: Seeded fault schedule (``repro.faults``).  The default empty plan
    #: leaves every layer on its zero-cost fast path; ``harness.*`` kinds
    #: are interpreted by the sweep runner, not the server.
    fault_plan: FaultPlan = field(default_factory=FaultPlan)
    #: Co-located tenants (``repro.tenants``).  When set, NF cores are
    #: assigned to tenants in contiguous blocks (``num_nf_cores`` must
    #: equal the set's total), flows carry tenant tags, DMA writes are
    #: attributed per tenant, and a :class:`TenantPartition` policy can
    #: split the DDIO ways between tenants.  ``None`` keeps the classic
    #: single-tenant server with zero added hot-path cost.
    tenants: Optional[TenantSet] = None

    def __post_init__(self) -> None:
        for name in ("num_nf_cores", "ring_size", "packet_bytes", "num_nics", "llc_ways"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        # Each cache is checked under the name of the field that sizes it.
        replace(default_llc_config(self.llc_bytes, self.llc_ways), name="llc_bytes").validate()
        replace(default_mlc_config(self.nf_mlc_bytes), name="nf_mlc_bytes").validate()
        if not 0 < self.ddio_ways <= self.llc_ways:
            raise ValueError(
                f"ddio_ways must be in 1..{self.llc_ways}, got {self.ddio_ways}"
            )
        cpu_ways = self.llc_ways - self.ddio_ways
        if self.nf_cat_ways is not None and not 0 < self.nf_cat_ways <= cpu_ways:
            raise ValueError(
                f"nf_cat_ways must be in 1..{cpu_ways} (the non-DDIO ways), "
                f"got {self.nf_cat_ways}"
            )
        if self.antagonist and self.antagonist_buffer_bytes < LINE_SIZE:
            raise ValueError(
                f"antagonist_buffer_bytes must be at least {LINE_SIZE} (one line), "
                f"got {self.antagonist_buffer_bytes}"
            )
        if self.llc_slices < 0:
            raise ValueError(f"llc_slices must be non-negative, got {self.llc_slices}")
        if self.recycle_mode not in RECYCLE_MODES:
            raise ValueError(
                f"unknown recycle mode {self.recycle_mode!r}; choose from {RECYCLE_MODES}"
            )
        steering = self.policy.steering
        if (
            steering is not None
            and steering.needs_classifier
            and self.num_nf_cores > MAX_DEST_CORE + 1
        ):
            raise ValueError(
                f"num_nf_cores must be at most {MAX_DEST_CORE + 1} under "
                f"{self.policy.name} (its TLP tags carry a 6-bit destination "
                f"core), got {self.num_nf_cores}"
            )
        if self.apps is not None and len(self.apps) != self.num_nf_cores:
            raise ValueError(
                f"apps lists {len(self.apps)} entries for "
                f"{self.num_nf_cores} NF cores"
            )
        tenants = self.tenants
        if tenants is not None and tenants.total_nf_cores != self.num_nf_cores:
            raise ValueError(
                f"tenant set needs {tenants.total_nf_cores} NF cores "
                f"but the server config provides {self.num_nf_cores}"
            )
        if (
            tenants is not None
            and isinstance(self.policy.steering, TenantPartition)
            and tenants.total_way_quota > self.ddio_ways
        ):
            raise ValueError(
                f"tenant way quotas sum to {tenants.total_way_quota} "
                f"but the server has only {self.ddio_ways} DDIO ways"
            )
        for core in range(self.num_nf_cores):
            name = self.app_for_core(core)
            if name not in APP_FACTORIES:
                raise ValueError(
                    f"unknown app {name!r}; choose from {sorted(APP_FACTORIES)}"
                )

    def app_for_core(self, core: int) -> str:
        if self.tenants is not None and core < self.num_nf_cores:
            return self.tenants.tenants[self.tenants.core_tenant(core)].app
        if self.apps is None:
            return self.app
        return self.apps[core]

    @property
    def num_cores(self) -> int:
        extra = self.tenants.num_antagonists if self.tenants is not None else 0
        return self.num_nf_cores + (1 if self.antagonist else 0) + extra


class _Allocator:
    """A bump allocator for the abstract physical address space."""

    def __init__(self, base: int = 0x1000_0000) -> None:
        self._next = base

    def take(self, num_bytes: int, align: int = 4096) -> int:
        addr = (self._next + align - 1) // align * align
        self._next = addr + num_bytes
        return addr


class WarmCheckpoint:
    """One sweep's warmed hierarchy, kept as bytes.

    Warm-up reads only the cache geometry, the LLC's CPU-fill masks and
    the addresses the antagonists and drivers write, so two servers that
    agree on those end warm-up in identical hierarchies.  The first
    server with a reusable warm-up stores its warmed caches and
    directory here; a later server with the same key restores them.
    At most one snapshot is held.  A server warms cold when anything
    could tell the difference: an observer (trace or checked mode) or a
    fault plan.  The controllers read counters that
    :meth:`SimulatedServer.start` resets after warm-up, so IDIO and IAT
    cells restore like DDIO and IOCA cells.
    """

    __slots__ = ("key", "state")

    def __init__(self) -> None:
        self.key: Optional[str] = None
        self.state: Optional[bytes] = None

    def warm_up(self, server: SimulatedServer) -> None:
        """Warm ``server`` up, from the snapshot when its key matches."""
        hierarchy = server.hierarchy
        if hierarchy.watched or not server.config.fault_plan.is_empty:
            server._warm_up()
            return
        key = _warm_key(server)
        if key == self.key:
            assert self.state is not None
            caches, entries = pickle.loads(self.state)
            for cache, state in zip(_warm_caches(hierarchy), caches):
                cache.load_state(state)
            directory = hierarchy.llc.directory._entries
            directory.clear()
            directory.update(entries)
            return
        server._warm_up()
        if self.key is None:
            self.state = pickle.dumps(
                (
                    [cache.dump_state() for cache in _warm_caches(hierarchy)],
                    hierarchy.llc.directory._entries,
                ),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            self.key = key


def _warm_caches(hierarchy: MemoryHierarchy) -> List[SetAssociativeCache]:
    """Every cache array warm-up can fill: L1s, MLCs, then the LLC."""
    return hierarchy.l1 + hierarchy.mlc + [hierarchy.llc.data]


def _warm_key(server: SimulatedServer) -> str:
    """A digest of everything warm-up reads."""
    llc = server.hierarchy.llc
    inputs = (
        [cache.config for cache in _warm_caches(server.hierarchy)],
        llc.inclusive,
        llc.slices,
        sorted(llc._core_masks.items()),
        llc._cpu_fill_order,
        [
            (a.core.core_id, a.app.buffer_base, a.app.num_lines())
            for a in server.antagonists
        ],
        [
            (d.core.core_id, [desc.desc_addr for desc in d.queue.ring.descriptors])
            for d in server.drivers
        ],
    )
    return hashlib.sha256(repr(inputs).encode()).hexdigest()


class SimulatedServer:
    """One fully wired server instance plus its load generators.

    The constructor runs the named build steps below in a fixed order:
    hierarchy, observers, ports, faults, steering, per-core queues,
    antagonists.  The order is part of the model: periodic tasks and bus
    subscriptions are created as the steps run, and their creation order
    breaks ties between same-tick events.
    """

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.sim = Simulator()
        self.stats = StatsBundle()
        self._build_hierarchy()
        self._build_observers()
        self._build_ports()
        self._build_faults()
        steering = config.policy.steering
        #: The policy's one steering controller (``None`` when the policy
        #: has no steering mechanism, or the mechanism starts none).
        self.steering: Optional[SteeringController] = (
            steering.install(self) if steering is not None else None
        )
        alloc = _Allocator()
        self._build_core_queues(alloc)
        self._build_antagonists(alloc)
        self._started = False

    def _build_hierarchy(self) -> None:
        """Caches and DRAM, CAT masks, the page table and the root complex."""
        config = self.config
        steering = config.policy.steering
        num_antagonists = config.num_cores - config.num_nf_cores
        hier_config = HierarchyConfig(
            num_cores=config.num_cores,
            # Antagonist cores are LLC-sensitive: they get the small MLC.
            mlc_sizes=[config.nf_mlc_bytes] * config.num_nf_cores
            + [ANTAGONIST_MLC_BYTES] * num_antagonists,
            llc=default_llc_config(config.llc_bytes, config.llc_ways),
            ddio_ways=config.ddio_ways,
            llc_inclusive=config.llc_inclusive,
            llc_slices=config.llc_slices
            or (steering.llc_slices if steering is not None else 0),
        )
        self.hierarchy = MemoryHierarchy(hier_config, self.stats)
        if config.nf_cat_ways is not None:
            # Restrict NF-core fills to the first nf_cat_ways non-DDIO ways.
            allowed = list(
                range(config.ddio_ways, config.ddio_ways + config.nf_cat_ways)
            )
            for core in range(config.num_nf_cores):
                self.hierarchy.llc.set_core_way_mask(core, allowed)
        self.page_table = PageTable()
        self.root_complex = RootComplex(self.sim, self.hierarchy)

    def _build_observers(self) -> None:
        """The opt-in trace recorder and invariant sanitizer."""
        config = self.config
        #: Optional per-hop transaction recorder (``trace_enabled``).
        self.trace_recorder: Optional[TraceRecorder] = None
        if config.trace_enabled:
            self.trace_recorder = TraceRecorder(
                max_events=config.trace_max_events
            ).attach(self.hierarchy)
        #: Optional runtime invariant checker (``checked_mode``).
        self.sanitizer: Optional[InvariantSanitizer] = None
        if config.checked_mode:
            self.sanitizer = InvariantSanitizer(
                self.hierarchy,
                barrier_interval=config.checked_barrier_interval,
            ).attach()

    def _build_ports(self) -> None:
        """One NIC per port, each on its own PCIe link (the paper's testbed
        has 2x100 GbE); NF core i is served by NIC (i mod num_nics)."""
        config = self.config
        steering = config.policy.steering
        classifier = None
        if steering is not None and steering.needs_classifier:
            classifier = ClassifierConfig(
                rx_burst_threshold_gbps=config.policy.idio.rx_burst_threshold_gbps,
                num_cores=config.num_cores,
            )
        self.nics: List[NIC] = []
        self.dmas: List[DMAEngine] = []
        for _ in range(config.num_nics):
            dma = DMAEngine(self.sim, self.root_complex)
            self.dmas.append(dma)
            self.nics.append(NIC(self.sim, dma, config.ring_size, classifier))

    def _build_faults(self) -> None:
        """Per-layer fault injectors (``fault_plan``) wired into the ports,
        the root complex and DRAM, plus a per-kind injection counter; both
        stay empty for the default plan."""
        config = self.config
        self.fault_injectors: Optional[FaultInjectors] = None
        self.fault_counts: Dict[str, int] = {}
        if config.fault_plan.is_empty:
            return
        self.hierarchy.bus.subscribe(FaultEvent, self._count_fault)
        fi = self.fault_injectors = FaultInjectors(
            config.fault_plan, self.hierarchy.bus
        )
        if self.sanitizer is not None:
            self.sanitizer.register_faults(config.fault_plan)
        for nic in self.nics:
            nic.faults = fi.nic
        self.root_complex.faults = fi.pcie
        for dma in self.dmas:
            dma.faults = fi.pcie
        self.hierarchy.dram.faults = fi.mem
        fi.schedule_window_tasks(self.sim, self.hierarchy.llc)

    def _build_core_queues(self, alloc: _Allocator) -> None:
        """Per NF core: descriptor ring, DMA buffers, RX/TX queues, flows,
        the poll-mode driver and one traffic generator per flow."""
        config = self.config
        self.cores: List[Core] = [
            Core(self.sim, i, self.hierarchy) for i in range(config.num_cores)
        ]
        self.apps: List[NetworkFunction] = []
        self.drivers: List[PollModeDriver] = []
        self.generators: List[TrafficGenerator] = []
        #: ``(start, end, tenant)`` DMA attribution ranges (tenanted only).
        self.tenant_ranges: List[Tuple[int, int, int]] = []
        tenant_slots: Dict[int, int] = {}
        stride = BUFFER_STRIDE
        desc_bytes = config.ring_size * DESCRIPTOR_BYTES
        for i in range(config.num_nf_cores):
            port = self.nics[i % len(self.nics)]
            core_tenant = (
                config.tenants.core_tenant(i) if config.tenants is not None else 0
            )
            desc_base = alloc.take(desc_bytes)
            self.page_table.map_range(desc_base, desc_bytes)

            buffer_pool = None
            copy_pool = None
            if config.recycle_mode == "reallocate":
                # One contiguous DMA region covering the ring's initial
                # buffers plus as many mempool spares; the ring's initial
                # slots are reserved out of the pool.
                total = config.ring_size * 2
                buf_bytes = total * stride
                buf_base = alloc.take(buf_bytes)
                buffer_pool = BufferPool(buf_base, stride, total)
                for slot in range(config.ring_size):
                    buffer_pool.reserve(buf_base + slot * stride)
            else:
                buf_bytes = config.ring_size * stride
                buf_base = alloc.take(buf_bytes)
            self.page_table.allocate_invalidatable(buf_base, buf_bytes)
            if config.recycle_mode == "copy":
                # Application-space destination buffers for the copy loop
                # (reused round-robin, like a socket read buffer).
                n_copies = 64
                copy_base = alloc.take(n_copies * stride)
                self.page_table.map_range(copy_base, n_copies * stride)
                copy_pool = [copy_base + k * stride for k in range(n_copies)]
            if config.tenants is not None:
                self.tenant_ranges += [
                    (desc_base, desc_base + desc_bytes, core_tenant),
                    (buf_base, buf_base + buf_bytes, core_tenant),
                ]

            queue = port.add_queue(i, i, desc_base, buf_base)
            app = APP_FACTORIES[config.app_for_core(i)]()
            if app.transmits:
                tx_desc_base = alloc.take(desc_bytes)
                self.page_table.map_range(tx_desc_base, desc_bytes)
                port.add_tx_queue(i, tx_desc_base)
            if config.tenants is not None:
                slot = tenant_slots.get(core_tenant, 0)
                flow = make_tenant_flow(core_tenant, slot)
                tenant_slots[core_tenant] = slot + 1
            else:
                flow = make_flow(i)
            port.flow_director.install_rule(flow, i)
            maintenance = MaintenanceUnit(
                i, self.hierarchy, page_table=self.page_table, scope="all"
            )
            driver = PollModeDriver(
                self.sim,
                self.cores[i],
                port,
                queue,
                app,
                maintenance=maintenance,
                self_invalidate=config.policy.self_invalidate,
                recycle_mode=config.recycle_mode,
                buffer_pool=buffer_pool,
                copy_pool=copy_pool,
            )
            if isinstance(self.steering, IDIOController):
                prefetcher = self.steering.prefetchers[i]
                if isinstance(prefetcher, RegulatedMLCPrefetcher):
                    prefetcher.attach_ring(
                        queue.ring,
                        buf_base,
                        stride,
                        lines_per_buffer=num_lines(config.packet_bytes),
                    )
            if self.sanitizer is not None and buffer_pool is not None:
                self.sanitizer.register_pool(buffer_pool)
            if self.fault_injectors is not None:
                driver.faults = self.fault_injectors.cpu
            self.apps.append(app)
            self.drivers.append(driver)
            self.generators.append(
                TrafficGenerator(self.sim, flow, port.receive, app.app_class)
            )

        if self.tenant_ranges:
            self.hierarchy.set_tenant_ranges(self.tenant_ranges)
        if self.sanitizer is not None and config.tenants is not None:
            self.sanitizer.register_tenants(config.tenants)

    def _build_antagonists(self, alloc: _Allocator) -> None:
        """One LLCAntagonist core per entry, numbered after the NF cores:
        the ``antagonist=True`` core first (seed 42), then one per
        antagonist tenant, seeded from that tenant's own RNG stream
        (SIM016) so its access pattern never depends on other tenants."""
        config = self.config
        footprints: List[Tuple[int, int]] = []  # (buffer bytes, seed)
        if config.antagonist:
            footprints.append((config.antagonist_buffer_bytes, 42))
        if config.tenants is not None:
            for tenant in config.tenants:
                if tenant.antagonist:
                    seed = tenant_rng(config.tenants.seed, tenant.tenant_id).getrandbits(32)
                    footprints.append((tenant.antagonist_footprint_bytes, seed))
        self.antagonists: List[AntagonistDriver] = []
        for core_id, (size, seed) in enumerate(footprints, start=config.num_nf_cores):
            buf = alloc.take(size)
            self.page_table.map_range(buf, size)
            thrasher = LLCAntagonist(buf, size, seed=seed)
            self.antagonists.append(
                AntagonistDriver(self.sim, self.cores[core_id], thrasher)
            )

    def _count_fault(self, event: FaultEvent) -> None:
        counts = self.fault_counts
        counts[event.kind] = counts.get(event.kind, 0) + 1

    # ------------------------------------------------------------------
    # experiment control
    # ------------------------------------------------------------------

    def start(self, warm: Optional[WarmCheckpoint] = None) -> None:
        """Warm up, reset statistics, and start all software agents.

        Warm-up runs at time 0: each antagonist writes its whole buffer
        and each driver writes its descriptor ring, each in one
        :meth:`~repro.mem.hierarchy.MemoryHierarchy.demand_lines` pass
        that leaves the hierarchy as one demand store per line would
        (everything it counts is reset below).  With a ``warm``
        checkpoint (one per sweep, held by the sweep runner) a server
        whose warm-up nothing can watch restores the hierarchy that an
        earlier cell's identical warm-up left, instead of replaying it.
        """
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        if warm is None:
            self._warm_up()
        else:
            warm.warm_up(self)
        # Statistics restart after warm-up so Fig.-style windows start clean.
        self.stats.reset()
        for core in self.cores:
            core.stats.mem_accesses = 0
            core.stats.mem_ticks = 0
            core.stats.compute_ticks = 0
        for driver in self.drivers:
            driver.start()
        for antagonist in self.antagonists:
            antagonist.start()

    def _warm_up(self) -> None:
        for antagonist in self.antagonists:
            antagonist.warmup()
        for driver in self.drivers:
            driver.init_ring()

    def inject_traffic(self, profiles: Sequence[TrafficProfile]) -> int:
        """Schedule ``profiles[i]`` on ``generators[i]`` (one generator per
        flow, NF cores in order); returns the packets queued."""
        if len(profiles) != len(self.generators):
            raise ValueError(
                f"{len(profiles)} traffic profiles for {len(self.generators)} generators"
            )
        return sum(gen.schedule(p) for gen, p in zip(self.generators, profiles))

    def run(self, until: int) -> int:
        """Advance the simulation to ``until`` (absolute ticks)."""
        return self.sim.run(until=until)

    def all_queues(self):
        """Every RX queue across all NIC ports."""
        for nic in self.nics:
            yield from nic.queues.values()

    @property
    def total_rx(self) -> int:
        return sum(nic.total_rx for nic in self.nics)

    @property
    def total_drops(self) -> int:
        return sum(nic.total_drops for nic in self.nics)

    @property
    def total_tx(self) -> int:
        return sum(nic.total_tx for nic in self.nics)

    def all_packets_drained(self) -> bool:
        """True when every accepted packet has been fully consumed."""
        return all(q.ring.occupancy() == 0 for q in self.all_queues())

    def run_until_drained(
        self,
        deadline: int,
        check_interval: int = units.microseconds(50),
    ) -> int:
        """Run until all rings drain (or ``deadline``); returns stop time."""
        while self.sim.now < deadline:
            step = min(check_interval, deadline - self.sim.now)
            self.sim.run(until=self.sim.now + step)
            if self.all_packets_drained() and self.sim.pending_events == 0:
                break
            if self.all_packets_drained():
                # Stop early only once every *scheduled* arrival has been
                # seen by the NIC (multi-burst runs have future arrivals
                # pending long after the current burst drains).
                scheduled = sum(g.packets_scheduled for g in self.generators)
                accepted = self.total_rx + self.total_drops
                if accepted >= scheduled > 0:
                    break
        return self.sim.now

    def stop(self) -> None:
        """Stop all periodic agents (end of measurement)."""
        for driver in self.drivers:
            driver.stop()
        for antagonist in self.antagonists:
            antagonist.stop()
        if self.steering is not None:
            self.steering.stop()
        for nic in self.nics:
            nic.stop()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def completed_packets(self) -> List[Packet]:
        packets: List[Packet] = []
        for driver in self.drivers:
            packets.extend(driver.completed_packets)
        return packets

    def packet_latencies_ns(self) -> List[float]:
        return [
            units.to_nanoseconds(p.latency)
            for p in self.completed_packets()
            if p.latency is not None
        ]

    def tenant_stats(self) -> Dict[int, Dict[str, float]]:
        """Per-tenant attribution: completion, tail latency, LLC footprint.

        Keys per tenant: ``completed`` (packets), ``p50_us``/``p95_us``/
        ``p99_us`` (0.0 when the tenant completed nothing — the sentinel
        is documented in ``ExperimentSummary.tenant_stats``),
        ``dma_writes`` (attributed inbound DMA), ``io_lines`` (I/O-origin
        LLC lines resident in the tenant's ranges at end of run), and
        ``io_ways`` (ways in the tenant's partition; 0 when unpartitioned).
        """
        tenants = self.config.tenants
        if tenants is None:
            return {}
        from .metrics import percentile

        llc = self.hierarchy.llc
        counter_values = self.hierarchy._counter_values
        way_table = llc.tenant_way_table()
        io_lines: Dict[int, int] = {}
        for line in llc.data.lines():
            if line.origin == "io":
                owner = self.hierarchy.tenant_of_addr(line.addr)
                if owner >= 0:
                    io_lines[owner] = io_lines.get(owner, 0) + 1
        stats: Dict[int, Dict[str, float]] = {}
        for tenant in tenants:
            latencies_us = []
            completed = 0
            for core in tenants.tenant_cores(tenant.tenant_id):
                packets = self.drivers[core].completed_packets
                completed += len(packets)
                for p in packets:
                    if p.latency is not None:
                        latencies_us.append(units.to_nanoseconds(p.latency) / 1000.0)
            entry = {
                "completed": float(completed),
                "dma_writes": float(
                    counter_values.get(f"tenant_dma_writes_t{tenant.tenant_id}", 0)
                ),
                "io_lines": float(io_lines.get(tenant.tenant_id, 0)),
                "io_ways": float(len(way_table.get(tenant.tenant_id, []))),
            }
            for p in (50, 95, 99):
                entry[f"p{p}_us"] = (
                    percentile(latencies_us, p) if latencies_us else 0.0
                )
            stats[tenant.tenant_id] = entry
        return stats
