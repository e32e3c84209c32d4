"""IDIO configuration knobs (paper defaults from §V/§VI)."""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import units

#: Control-plane sampling interval for mlcWB (Alg. 1: 1 us).
CONTROL_INTERVAL = units.microseconds(1)
#: Number of consecutive 1 us samples accumulated into mlcWBAvg
#: (Alg. 1: 8192, i.e. the average window is 8192 us).
AVERAGE_WINDOW_SAMPLES = 8192


@dataclass
class IDIOConfig:
    """Tunables of the IDIO controller, classifier, and MLC prefetcher.

    Defaults are the values the paper selects experimentally (§VI) and
    sweeps in its sensitivity analysis (Fig. 14).
    """

    #: mlcTHR, MLC-writeback pressure threshold.  The paper quotes it as
    #: 50 million transactions/second; at a 1 us sampling interval that is
    #: 50 transactions per sample.
    mlc_threshold_mtps: float = 50.0
    #: rxBurstTHR for the NIC-side classifier (paper: 10 Gbps).
    rx_burst_threshold_gbps: float = 10.0
    #: Use the CPU-pointer-following prefetcher (§VII future work): hints
    #: more than ``PREFETCH_MAX_AHEAD`` ring slots ahead of the consumer
    #: are held back instead of flooding the MLC.
    prefetch_regulated: bool = False

    @property
    def mlc_threshold_per_interval(self) -> float:
        """mlcTHR expressed in writebacks per control interval (Alg. 1)."""
        return self.mlc_threshold_mtps * 1e6 * (CONTROL_INTERVAL / units.SECOND)

    def validate(self) -> None:
        if self.mlc_threshold_mtps < 0:
            raise ValueError("mlc_threshold_mtps must be non-negative")
