"""The IDIO controller (§V-B): data plane + control plane of Alg. 1.

The controller sits at the PCIe root complex.  For every inbound DMA write
it receives the classifier tag decoded from the TLP's reserved bits and
decides the placement:

* header line  -> LLC placement **plus** a prefetch hint to the target
  core's MLC prefetcher (headers always have short use distance);
* application class 1 -> direct DRAM write (selective direct DRAM access);
* status[destCore] == MLC -> LLC placement plus a prefetch hint;
* otherwise -> plain DDIO LLC placement.

The control plane samples each core's MLC writeback count every 1 us
(the growth of the hierarchy's ``mlc_writebacks_c<core>`` counter),
compares it against the running average (``mlcWBAvg`` over 8192
samples) plus ``mlcTHR``, and walks the per-core FSM of Fig. 8.

A ``static`` mode pins every FSM's status register to MLC — this is the
"Static" configuration of Fig. 9/10.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..mem.hierarchy import MemoryHierarchy
from ..pcie.tlp import IdioTag
from ..sim import PeriodicTask, Simulator
from .config import AVERAGE_WINDOW_SAMPLES, CONTROL_INTERVAL, IDIOConfig
from .fsm import StatusFSM
from .prefetcher import MLCPrefetcher, RegulatedMLCPrefetcher


class IDIOController:
    """Per-socket IDIO controller instance."""

    def __init__(
        self,
        sim: Simulator,
        hierarchy: MemoryHierarchy,
        config: Optional[IDIOConfig] = None,
        static_mlc: bool = False,
        prefetch_enabled: bool = True,
        direct_dram_enabled: bool = True,
    ) -> None:
        self.sim = sim
        self.hierarchy = hierarchy
        self.config = config or IDIOConfig()
        self.config.validate()
        self.static_mlc = static_mlc
        self.prefetch_enabled = prefetch_enabled
        self.direct_dram_enabled = direct_dram_enabled

        n = hierarchy.config.num_cores
        self.fsm: List[StatusFSM] = [StatusFSM() for _ in range(n)]
        self._mlc_wb_names = [f"mlc_writebacks_c{core}" for core in range(n)]
        #: Each core's ``mlcWB`` counter at the last tick; Alg. 1 samples
        #: its growth per interval.  ``SimulatedServer.start`` resets the
        #: counters after warm-up, before the first tick.
        self._mlc_wb_seen = [0] * n
        self.mlc_wb_acc: List[int] = [0] * n  # accumulator over the window
        self.mlc_wb_avg: List[float] = [0.0] * n  # per-interval average
        self._samples_in_window = 0
        prefetcher = (
            RegulatedMLCPrefetcher if self.config.prefetch_regulated else MLCPrefetcher
        )
        self.prefetchers: List[MLCPrefetcher] = [
            prefetcher(sim, hierarchy, core) for core in range(n)
        ]
        #: Data-plane decision counters (diagnostics / EXPERIMENTS.md).
        self.decisions: Dict[str, int] = {
            "header_prefetch": 0,
            "direct_dram": 0,
            "mlc_prefetch": 0,
            "llc": 0,
        }

        self._control_task = PeriodicTask(
            sim, CONTROL_INTERVAL, self._control_tick, "idio-control"
        )

    # ------------------------------------------------------------------
    # data plane (Alg. 1 lines 1-11)
    # ------------------------------------------------------------------

    def steer(self, tag: IdioTag, addr: int, now: int) -> str:
        """Placement decision for one DMA write; the RootComplex hook."""
        core = tag.dest_core
        if tag.is_burst and core < len(self.fsm):
            self.fsm[core].on_burst()

        if tag.is_header:
            self.decisions["header_prefetch"] += 1
            if self.prefetch_enabled and core < len(self.prefetchers):
                self.prefetchers[core].hint(addr)
            return "llc"

        if tag.app_class == 1:
            if self.direct_dram_enabled:
                self.decisions["direct_dram"] += 1
                return "dram"
            self.decisions["llc"] += 1
            return "llc"

        steer_mlc = self.static_mlc or (
            core < len(self.fsm) and self.fsm[core].steers_to_mlc
        )
        if steer_mlc and self.prefetch_enabled and core < len(self.prefetchers):
            self.decisions["mlc_prefetch"] += 1
            self.prefetchers[core].hint(addr)
            return "llc"

        self.decisions["llc"] += 1
        return "llc"

    # ------------------------------------------------------------------
    # control plane (Alg. 1 lines 13-24)
    # ------------------------------------------------------------------

    def _control_tick(self) -> None:
        threshold = self.config.mlc_threshold_per_interval
        counters = self.hierarchy.stats.counters
        seen = self._mlc_wb_seen
        for core, fsm in enumerate(self.fsm):
            count = counters.get(self._mlc_wb_names[core])
            mlc_wb = count - seen[core]
            seen[core] = count
            fsm.on_pressure(mlc_wb > self.mlc_wb_avg[core] + threshold)
            self.mlc_wb_acc[core] += mlc_wb
        self._samples_in_window += 1
        if self._samples_in_window >= AVERAGE_WINDOW_SAMPLES:
            for core in range(len(self.fsm)):
                self.mlc_wb_avg[core] = self.mlc_wb_acc[core] / AVERAGE_WINDOW_SAMPLES
                self.mlc_wb_acc[core] = 0
            self._samples_in_window = 0

    # ------------------------------------------------------------------

    def stop(self) -> None:
        self._control_task.stop()
