"""Extension and ablation experiments beyond the paper's figures.

DESIGN.md §6 lists the follow-on studies this reproduction adds on top of
the published evaluation:

* per-mechanism ablation vs the related-work IAT baseline;
* the §VII future-work regulated (CPU-pointer-following) prefetcher;
* the §II-B buffer-recycling-mode comparison;
* rxBurstTHR sensitivity (the paper only sweeps mlcTHR);
* ring-size sweep under IDIO (the paper sweeps it only for DDIO, Fig. 4);
* the inclusive-LLC counterfactual (DMA bloating requires non-inclusion).

Each function mirrors the ``figures`` module: it declares its sweep as a
:class:`~repro.harness.matrix.Matrix`, runs it (``jobs > 1`` rides the
warm session pool shared with the figure sweeps — see
``docs/performance.md``), and returns the
:class:`~repro.harness.matrix.SweepResult`.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterator, Optional, Sequence

from ..core import policies
from ..sim import units
from .experiment import Experiment
from .figures import RATIO_COLUMNS, _bursty_experiment, _figure, _vs_ddio
from .matrix import SweepResult
from .server import ServerConfig


def ext_baselines(
    burst_rates: Sequence[float] = (100.0, 25.0),
    ring_size: int = 1024,
    jobs: int = 1,
) -> SweepResult:
    """DDIO vs IAT (dynamic DDIO ways) vs IDIO vs regulated IDIO.

    Shows the paper's S1 argument quantitatively: way-resizing alone trims
    the DMA leak but cannot remove dead-buffer MLC writebacks or use the
    MLC, while the pointer-following prefetcher removes the MLC-flooding
    limitation IDIO's FSM merely mitigates.
    """

    def cell(rate: float, name: str) -> Experiment:
        return _bursty_experiment(f"ext-{name}-{rate:g}g", rate, ring_size).with_policy(
            policies.policy_by_name(name)
        )

    return _figure(
        ("rate_gbps", "policy"),
        product(burst_rates, ("ddio", "iat", "idio", "idio-regulated")), cell, jobs,
        title="Extension — baseline ladder: DDIO / IAT / IDIO / regulated IDIO",
        columns=("policy", ("rate", "rate_gbps"), ("MLC WB", "mlc_wb"), ("LLC WB", "llc_wb"),
                 ("DRAM wr", "dram_wr"), ("burst us", "burst_time_us"), ("p99 us", "p99_us")),
    )


def ext_recycling_modes(
    burst_rate_gbps: float = 50.0,
    ring_size: int = 512,
    policy_names: Sequence[str] = ("ddio", "idio"),
    jobs: int = 1,
) -> SweepResult:
    """The §II-B recycling modes under DDIO and IDIO.

    Run-to-completion (DPDK) is the paper's focus; the copy mode (Linux
    stack) doubles core-side memory traffic, and the re-allocate mode
    doubles the live DMA footprint.
    """

    def cell(policy_name: str, mode: str) -> Experiment:
        return Experiment(
            name=f"ext-recycle-{policy_name}-{mode}",
            server=ServerConfig(
                policy=policies.policy_by_name(policy_name),
                app="touchdrop",
                ring_size=ring_size,
                recycle_mode=mode,
            ),
            burst_rate_gbps=burst_rate_gbps,
        )

    return _figure(
        ("policy", "mode"),
        product(policy_names, ("run_to_completion", "copy", "reallocate")), cell, jobs,
        title="Extension — §II-B buffer recycling modes",
        columns=("policy", ("recycle mode", "mode"), ("MLC WB", "mlc_wb"), ("LLC WB", "llc_wb"),
                 ("DRAM wr", "dram_wr"), ("core accesses", "core_accesses"),
                 ("burst us", "burst_time_us"), ("p99 us", "p99_us")),
    )


def ext_burst_threshold(
    thresholds_gbps: Sequence[float] = (2.0, 5.0, 10.0, 20.0, 50.0),
    burst_rate_gbps: float = 100.0,
    ring_size: int = 1024,
    jobs: int = 1,
) -> SweepResult:
    """rxBurstTHR sensitivity (the paper fixes it at 10 Gbps)."""

    def cell(name: str, thr: Optional[float]) -> Experiment:
        if thr is None:
            return _bursty_experiment("ext-thr-ddio", burst_rate_gbps, ring_size)
        return _bursty_experiment(f"ext-thr-{thr:g}", burst_rate_gbps, ring_size).with_policy(
            policies.idio().with_burst_threshold(thr)
        )

    def rows(result: SweepResult) -> Iterator[Dict[str, object]]:
        for c, base in _vs_ddio(result):
            yield {
                "rx_burst_thr_gbps": c.rx_burst_thr_gbps,
                "bursts_detected": c.summary.bursts_detected,
                **c.summary.normalized_to(base),
            }

    return _figure(
        ("policy", "rx_burst_thr_gbps"),
        [("ddio", None), *(("idio", thr) for thr in thresholds_gbps)], cell, jobs, rows=rows,
        title="Extension — rxBurstTHR sweep (ratios vs DDIO)",
        columns=(("rxBurstTHR (Gbps)", "rx_burst_thr_gbps"),
                 ("bursts detected", "bursts_detected"),
                 *(col for col in RATIO_COLUMNS if col[1] != "dram_reads")),
    )


def ext_ring_sweep(
    ring_sizes: Sequence[int] = (256, 512, 1024, 2048),
    burst_rate_gbps: float = 25.0,
    jobs: int = 1,
) -> SweepResult:
    """Ring-size sweep under IDIO (Fig. 4 swept it only for DDIO)."""

    def cell(ring: int, name: str) -> Experiment:
        return _bursty_experiment(f"ext-ring{ring}-{name}", burst_rate_gbps, ring).with_policy(
            policies.policy_by_name(name)
        )

    return _figure(
        ("ring", "policy"), product(ring_sizes, ("ddio", "idio")), cell, jobs,
        title="Extension — ring-size sweep, DDIO vs IDIO",
        columns=("ring", "policy", ("MLC WB", "mlc_wb"), ("LLC WB", "llc_wb"),
                 ("DRAM wr", "dram_wr"), ("burst us", "burst_time_us")),
    )


def ext_traffic_realism(
    rate_gbps_per_nf: float = 8.0,
    imix_rate_gbps_per_nf: float = 2.0,
    duration_us: float = 1500.0,
    ring_size: int = 1024,
    jobs: int = 1,
) -> SweepResult:
    """IDIO under stochastic traffic: Poisson arrivals and IMIX sizes.

    The paper evaluates perfectly steady and perfectly periodic-burst
    traffic.  Real links carry neither: Poisson arrivals add queueing
    variance, and the IMIX size mix makes most packets header-dominated.
    This extension checks that IDIO's benefits survive both.

    IMIX gets its own (lower) bit rate: the cores are packet-rate bound,
    and IMIX's ~362 B average frame reaches the per-core pps limit at a
    fraction of the MTU-frame bit rate.
    """

    def cell(traffic: str, name: str) -> Experiment:
        return Experiment(
            name=f"ext-traffic-{traffic}-{name}",
            server=ServerConfig(
                policy=policies.policy_by_name(name),
                app="touchdrop",
                ring_size=ring_size,
            ),
            traffic=traffic,
            steady_rate_gbps_per_nf=(
                imix_rate_gbps_per_nf if traffic == "imix" else rate_gbps_per_nf
            ),
            steady_duration=units.microseconds(duration_us),
        )

    return _figure(
        ("traffic", "policy"), product(("steady", "poisson", "imix"), ("ddio", "idio")),
        cell, jobs,
        title="Extension — stochastic traffic (Poisson arrivals, IMIX sizes)",
        columns=("traffic", "policy", ("RX pkts", "rx"), ("MLC WB", "mlc_wb"),
                 ("LLC WB", "llc_wb"), ("p99 us", "p99_us")),
    )


def ext_mixed_deployment(
    burst_rate_gbps: float = 50.0,
    ring_size: int = 512,
    packet_bytes: int = 1024,
    jobs: int = 1,
) -> SweepResult:
    """Heterogeneous deployment: a class-0 and a class-1 NF share the LLC.

    Core 0 runs TouchDrop (class 0: payload processed promptly); core 1
    runs the header-only firewall variant (class 1: payload rarely used).
    Under IDIO the class-1 payload bypasses the cache hierarchy while the
    class-0 neighbor keeps its MLC steering — the per-flow differentiation
    that motivates carrying the DSCP class in the TLP bits (§V-A).
    """

    def cell(name: str) -> Experiment:
        return Experiment(
            name=f"ext-mixed-{name}",
            server=ServerConfig(
                policy=policies.policy_by_name(name),
                apps=["touchdrop", "l2fwd-payload-drop"],
                ring_size=ring_size,
                packet_bytes=packet_bytes,
            ),
            burst_rate_gbps=burst_rate_gbps,
        )

    return _figure(
        ("policy",), [("ddio",), ("idio",)], cell, jobs,
        title="Extension — mixed class-0/class-1 deployment",
        columns=("policy", ("direct DRAM wr", "direct_dram_wr"), ("MLC WB", "mlc_wb"),
                 ("LLC WB", "llc_wb"), ("touchdrop avg us", "touchdrop_avg_us"),
                 ("firewall avg us", "firewall_avg_us")),
    )


def ext_cachedirector(
    burst_rate_gbps: float = 25.0,
    ring_size: int = 1024,
    packet_bytes: int = 1024,
    llc_slices: int = 8,
    jobs: int = 1,
) -> SweepResult:
    """CacheDirector baseline on a sliced (NUCA) LLC, vs DDIO and IDIO.

    Related work [14] steers packet headers to the LLC slice next to the
    consuming core.  On the same NUCA topology we compare plain DDIO,
    CacheDirector, and IDIO running the shallow L2Fwd NF: slice pinning
    trims header access latency but leaves every writeback pathology in
    place — the paper's argument for finer-grained control.
    """

    def cell(name: str) -> Experiment:
        return Experiment(
            name=f"ext-cd-{name}",
            server=ServerConfig(
                policy=policies.policy_by_name(name),
                app="l2fwd",
                ring_size=ring_size,
                packet_bytes=packet_bytes,
                llc_slices=llc_slices,
            ),
            burst_rate_gbps=burst_rate_gbps,
        )

    return _figure(
        ("policy",), [("ddio",), ("cachedirector",), ("idio",)], cell, jobs,
        title=f"Extension — CacheDirector on a {llc_slices}-slice NUCA LLC (L2Fwd)",
        columns=("policy", ("p50 us", "p50_us"), ("p99 us", "p99_us"), ("MLC WB", "mlc_wb"),
                 ("LLC WB", "llc_wb"), ("headers steered", "headers_steered")),
    )


def ext_saturation(
    rates_gbps: Sequence[float] = (10.0, 12.0, 14.0, 16.0, 20.0),
    ring_size: int = 256,
    duration_us: float = 4000.0,
    policy_names: Sequence[str] = ("ddio", "idio"),
    jobs: int = 1,
) -> SweepResult:
    """Per-core saturation sweep under steady load.

    §VII observes packet drops above ~12 Gbps per core.  Because IDIO
    shortens per-packet processing (MLC-resident data), it sustains a
    higher lossless rate than DDIO — a capacity benefit the paper implies
    but does not plot.  This sweep measures the drop rate per steady load
    level for each policy.

    The defaults use a 256-entry ring and a 4 ms window so that a
    persistent arrival/service imbalance actually overflows the ring
    within the measurement (a 1024-entry ring absorbs several ms of
    mild overload without dropping, hiding the onset).
    """

    def cell(policy_name: str, rate: float) -> Experiment:
        return Experiment(
            name=f"ext-sat-{policy_name}-{rate:g}",
            server=ServerConfig(
                policy=policies.policy_by_name(policy_name),
                app="touchdrop",
                ring_size=ring_size,
            ),
            traffic="steady",
            steady_rate_gbps_per_nf=rate,
            steady_duration=units.microseconds(duration_us),
        )

    return _figure(
        ("policy", "rate_gbps"), product(policy_names, rates_gbps), cell, jobs,
        title="Extension — steady-load saturation sweep (paper: drops > ~12 Gbps/core)",
        columns=("policy", ("rate (Gbps/NF)", "rate_gbps"), "offered", "drops",
                 ("drop %", "drop_pct"), ("p99 us", "p99_us")),
    )


def ext_inclusive_counterfactual(
    burst_rate_gbps: float = 100.0,
    ring_size: int = 1024,
    jobs: int = 1,
) -> SweepResult:
    """Inclusive-LLC counterfactual: DMA bloating needs non-inclusion.

    In an inclusive hierarchy MLC victims need no LLC allocation (the copy
    already exists), so consumed DMA buffers cannot bloat into the
    non-DDIO ways — at the price of the LLC back-invalidating MLC lines on
    its own evictions.
    """

    def cell(label: str) -> Experiment:
        return Experiment(
            name=f"ext-{label}",
            server=ServerConfig(
                app="touchdrop", ring_size=ring_size, llc_inclusive=label == "inclusive"
            ),
            burst_rate_gbps=burst_rate_gbps,
        )

    return _figure(
        ("hierarchy",), [("non-inclusive",), ("inclusive",)], cell, jobs,
        title="Extension — inclusive-LLC counterfactual (DDIO policy)",
        columns=("hierarchy", ("MLC WB", "mlc_wb"), ("LLC WB", "llc_wb"), ("DRAM rd", "dram_rd"),
                 ("back-invals", "back_invalidations"), ("burst us", "burst_time_us")),
    )
