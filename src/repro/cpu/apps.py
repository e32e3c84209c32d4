"""The evaluation workloads of Table II.

* **TouchDrop** — receive packets, touch their entire data, drop them.
  The prototypical *deep* (full-payload) receive-intensive NF; uses the
  run-to-completion recycling mode (§II-B M3).
* **L2Fwd** — receive packets, inspect the Ethernet header, forward the
  packet back out zero-copy.  The prototypical *shallow* NF: the payload
  is never touched by the core, and the DMA buffer is consumed only once
  the NIC's TX reads complete (Fig. 3 right).
* **L2FwdPayloadDrop** — the §VII variant that processes the header and
  drops the payload; its senders mark it application class 1 (long use
  distance), which is what exercises IDIO's selective direct DRAM access.
* **LLCAntagonist** — allocates a buffer and randomly accesses elements,
  creating LLC pressure; not a network function (driven by
  :class:`~repro.cpu.dpdk.AntagonistDriver`).

Cost-model constants: software work is charged in cycles at 3 GHz on top
of the hierarchy's memory latencies.  ``BASE_CYCLES`` covers the PMD/mbuf
bookkeeping per packet; ``TOUCH_CYCLES_PER_LINE`` the data-touching loop;
``HEADER_CYCLES`` the header parse and forwarding decision.  With
MLC-resident data this yields ~1.0 us per 1514 B packet — i.e. the
~12 Gbps per-core saturation the paper reports (§VII).

``MEM_OVERLAP`` models the memory-level parallelism of the streaming
data-touch loop: a 3-wide OoO core with 16 L2 MSHRs (Table I) keeps
several line fetches of the same buffer in flight, so the *effective*
per-line stall is the hierarchy latency divided by the overlap factor.
Dependent accesses (header parsing, the LLCAntagonist's random walk)
do not benefit and are charged full latency.
"""

from __future__ import annotations

from ..mem.line import LINE_SIZE, lines_spanning
from ..net.packet import APP_CLASS_LONG_USE, APP_CLASS_SHORT_USE, HEADER_BYTES, Packet
from ..sim import units
from .core import Core

#: Fixed per-packet driver/mbuf overhead, in cycles (~600 ns at 3 GHz).
BASE_CYCLES = 1800.0
#: Data-touching work per cacheline, in cycles (~10 ns at 3 GHz).
TOUCH_CYCLES_PER_LINE = 30.0
#: Header parsing / forwarding decision work, in cycles.
HEADER_CYCLES = 300.0
#: Overlap factor for streaming (independent) line fetches.
MEM_OVERLAP = 8.0
#: LLCAntagonist random reads per driver iteration.
ANTAGONIST_ACCESSES_PER_ITERATION = 64
#: LLCAntagonist work per random read, in cycles.
ANTAGONIST_COMPUTE_CYCLES_PER_ACCESS = 6.0


class NetworkFunction:
    """Base class for packet-consuming applications."""

    #: DSCP application class the function's senders mark (§V-A).
    app_class = APP_CLASS_SHORT_USE
    #: Whether processed packets are transmitted back out (zero-copy TX).
    transmits = False
    #: Buffer recycling mode (§II-B): all our NFs are run-to-completion.
    recycle_mode = "run_to_completion"
    name = "nf"

    def process(self, core: Core, packet: Packet) -> int:
        """Run the per-packet work on ``core``; returns the latency in ticks.

        Implementations issue demand accesses through the core (which
        mutate the shared cache hierarchy) and charge compute cycles.
        """
        raise NotImplementedError


class TouchDrop(NetworkFunction):
    """Receive, touch every byte, drop (Table II)."""

    name = "touchdrop"
    app_class = APP_CLASS_SHORT_USE
    transmits = False

    def __init__(self) -> None:
        self.packets_processed = 0
        self.bytes_processed = 0

    def process(self, core: Core, packet: Packet) -> int:
        assert packet.buffer_addr is not None, "packet was never DMA-ed"
        latency = core.compute(BASE_CYCLES)
        # This loop touches every line of every received packet, the
        # hottest application loop there is: the lines take one hierarchy
        # run, and the constant per-line touch cost is accounted once.
        lats = core.read_lines(lines_spanning(packet.buffer_addr, packet.size_bytes))
        touch_ticks = units.cycles(TOUCH_CYCLES_PER_LINE) * len(lats)
        core.stats.compute_ticks += touch_ticks
        # Streaming touch loop: line fetches overlap (MLP), so only the
        # effective (divided) stall is charged to the packet.
        latency += touch_ticks
        for lat in lats:
            latency += int(lat / MEM_OVERLAP)
        self.packets_processed += 1
        self.bytes_processed += packet.size_bytes
        return latency


class L2Fwd(NetworkFunction):
    """Receive, parse the Ethernet header, forward zero-copy (Table II).

    Only the header line is read; the destination MAC rewrite dirties it.
    The driver initiates TX after processing; the buffer is recycled (and,
    under IDIO, self-invalidated) when the NIC's PCIe reads complete.
    """

    name = "l2fwd"
    app_class = APP_CLASS_SHORT_USE
    transmits = True

    def __init__(self) -> None:
        self.packets_processed = 0
        self.bytes_processed = 0

    def process(self, core: Core, packet: Packet) -> int:
        assert packet.buffer_addr is not None, "packet was never DMA-ed"
        latency = core.compute(BASE_CYCLES)
        for addr in lines_spanning(packet.buffer_addr, min(packet.size_bytes, HEADER_BYTES)):
            latency += core.mem_read(addr)
        latency += core.compute(HEADER_CYCLES)
        # Rewrite the destination MAC in place (zero-copy forward).
        latency += core.mem_write(packet.buffer_addr)
        self.packets_processed += 1
        self.bytes_processed += packet.size_bytes
        return latency


class L2FwdPayloadDrop(NetworkFunction):
    """§VII variant: process the header, drop the payload.

    Senders mark these flows application class 1, so under IDIO the
    payload lines are written directly to DRAM (M3) and never pollute the
    LLC.
    """

    name = "l2fwd-payload-drop"
    app_class = APP_CLASS_LONG_USE
    transmits = False

    def __init__(self) -> None:
        self.packets_processed = 0
        self.bytes_processed = 0

    def process(self, core: Core, packet: Packet) -> int:
        assert packet.buffer_addr is not None, "packet was never DMA-ed"
        latency = core.compute(BASE_CYCLES)
        for addr in lines_spanning(packet.buffer_addr, min(packet.size_bytes, HEADER_BYTES)):
            latency += core.mem_read(addr)
        latency += core.compute(HEADER_CYCLES)
        self.packets_processed += 1
        self.bytes_processed += packet.size_bytes
        return latency


class LLCAntagonist:
    """Allocate a buffer and randomly access elements (Table II).

    Creates LLC interference at a configurable degree via the buffer size.
    The paper warms the buffer before collecting stats and shrinks the
    antagonist core's MLC to 256 KB so it is LLC-sensitive (§VI).  Each
    iteration of its driver reads ``ANTAGONIST_ACCESSES_PER_ITERATION``
    random lines at ``ANTAGONIST_COMPUTE_CYCLES_PER_ACCESS`` cycles each.
    """

    name = "llcantagonist"

    def __init__(
        self,
        buffer_base: int,
        buffer_bytes: int = 2 * 1024 * 1024,
        seed: int = 42,
    ) -> None:
        if buffer_bytes < LINE_SIZE:
            raise ValueError("antagonist buffer must hold at least one line")
        self.buffer_base = buffer_base
        self.buffer_bytes = buffer_bytes
        self.seed = seed
        self.accesses_done = 0

    def num_lines(self) -> int:
        return self.buffer_bytes // LINE_SIZE
