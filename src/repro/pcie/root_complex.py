"""PCIe root complex: the on-chip entry point for DMA traffic.

The root complex receives memory-write/read TLPs from the NIC's DMA engine
and turns them into memory-hierarchy transactions.  In the baseline it
simply applies the static DDIO policy (write-allocate/update in the LLC's
DDIO ways).  The IDIO controller (§V-B) is *tightly coupled with the PCIe
root complex*; it plugs in here as a steering hook that sees every inbound
TLP's decoded metadata and decides the placement.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..mem.hierarchy import MemoryHierarchy
from ..mem.transaction import DMA_READ, DMA_WRITE, _LINE_MASK, MemoryTransaction
from ..sim import Simulator
from .tlp import IdioTag, decode_idio_bits, encode_idio_bits

#: Format/type DW0 bits of a memory-write TLP (MWr, 3DW header).
_MWR_FMT_TYPE = 0x40 << 24
_UNTAGGED = IdioTag()


#: A steering hook: (tag, address, now) -> placement ("llc" or "dram").
#: Returning a placement may also trigger side effects (prefetch hints).
SteeringHook = Callable[[IdioTag, int, int], str]


class RootComplex:
    """Routes DMA TLPs into the memory hierarchy."""

    def __init__(
        self,
        sim: Simulator,
        hierarchy: MemoryHierarchy,
        steering_hook: Optional[SteeringHook] = None,
    ) -> None:
        self.sim = sim
        self.hierarchy = hierarchy
        self.steering_hook = steering_hook
        #: Optional PCIe-layer fault injector (``repro.faults``); the
        #: batch entry point only leaves its fast path when the injector
        #: carries data-plane faults (TLP reorder / header corruption).
        self.faults = None
        # Scratch transactions for the batch entry points (one DMA write
        # per line of every received packet): the hierarchy executes each
        # transaction synchronously, so the same object is re-initialized
        # per line instead of allocated.  An observed hierarchy runs and
        # publishes a copy, so no observer ever holds these objects.
        self._scratch_write = MemoryTransaction(DMA_WRITE, 0, 0)
        self._scratch_read = MemoryTransaction(DMA_READ, 0, 0)

    def attach_controller(self, hook: SteeringHook) -> None:
        """Install (or replace) the IDIO controller's data-plane hook."""
        self.steering_hook = hook

    def memory_write_batch(
        self,
        addrs: Sequence[int],
        tags: Optional[Sequence[IdioTag]] = None,
    ) -> None:
        """Process one DMA burst: a memory-write TLP per line, same tick.

        Each line's tag round-trips through the Fig. 7 header bit layout
        (encoded on the NIC side, decoded here) before the steering hook
        sees it, without constructing a TLP object per line — the
        encode/decode pair is memoized on the handful of distinct tags a
        run produces.  This is the RX data path's hottest entry point.  The
        DDIO baseline (untagged, no steering hook) takes one
        :meth:`~repro.mem.hierarchy.MemoryHierarchy.dma_write_lines` run
        per burst.
        """
        faults = self.faults
        if faults is not None and faults.data_faults:
            self._memory_write_batch_faulted(addrs, tags)
            return
        now = self.sim.now
        hook = self.steering_hook
        run = self.hierarchy._run_dma_write
        txn = self._scratch_write
        txn.now = now
        if tags is None:
            tag = decode_idio_bits(_MWR_FMT_TYPE | encode_idio_bits(_UNTAGGED))
            if hook is None:
                self.hierarchy.dma_write_lines(addrs, now, tag.dest_core, tag)
                return
            txn.core = tag.dest_core
            txn.tag = tag
            for addr in addrs:
                txn.addr = addr & _LINE_MASK
                txn.placement = hook(tag, addr, now)
                run(txn)
            return
        for addr, raw_tag in zip(addrs, tags):
            tag = decode_idio_bits(_MWR_FMT_TYPE | encode_idio_bits(raw_tag))
            txn.core = tag.dest_core
            txn.tag = tag
            txn.placement = hook(tag, addr, now) if hook is not None else "llc"
            txn.addr = addr & _LINE_MASK
            run(txn)

    def _memory_write_batch_faulted(
        self,
        addrs: Sequence[int],
        tags: Optional[Sequence[IdioTag]],
    ) -> None:
        """Per-line slow path used only when TLP reorder/corruption
        faults are installed.

        The burst may be legally permuted, and each line's encoded header
        word may have an IDIO reserved bit flipped *before* the decode
        the steering path relies on — exactly the adversity the Fig. 7
        in-band transport must tolerate (a corrupted tag steers a line to
        the wrong place; it must never crash the pipeline).
        """
        now = self.sim.now
        faults = self.faults
        hook = self.steering_hook
        run = self.hierarchy._run_dma_write
        txn = self._scratch_write
        txn.now = now
        addrs, tags = faults.permute_batch(addrs, tags, now)
        for i, addr in enumerate(addrs):
            raw_tag = tags[i] if tags is not None else _UNTAGGED
            word = faults.corrupt_word(_MWR_FMT_TYPE | encode_idio_bits(raw_tag), now)
            tag = decode_idio_bits(word)
            txn.core = tag.dest_core
            txn.tag = tag
            txn.placement = hook(tag, addr, now) if hook is not None else "llc"
            txn.addr = addr & _LINE_MASK
            run(txn)

    def memory_read_batch(self, addrs: Sequence[int]) -> None:
        """Process one TX burst: a memory-read TLP per line, same tick."""
        run = self.hierarchy._run_dma_read
        txn = self._scratch_read
        txn.now = self.sim.now
        for addr in addrs:
            txn.addr = addr & _LINE_MASK
            run(txn)
