"""Extension and ablation experiments beyond the paper's figures.

DESIGN.md §6 lists the follow-on studies this reproduction adds on top of
the published evaluation:

* per-mechanism ablation vs the related-work IAT baseline;
* the §VII future-work regulated (CPU-pointer-following) prefetcher;
* the §II-B buffer-recycling-mode comparison;
* rxBurstTHR sensitivity (the paper only sweeps mlcTHR);
* ring-size sweep under IDIO (the paper sweeps it only for DDIO, Fig. 4);
* the inclusive-LLC counterfactual (DMA bloating requires non-inclusion).

Each function mirrors the ``figures`` module: it declares its sweep,
fans it out through :func:`repro.harness.runner.run_named_experiments`
(``jobs > 1`` rides the warm session pool shared with the figure
sweeps — see ``docs/performance.md``), and returns a
:class:`~repro.harness.figures.FigureReport` over summaries.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..core import policies
from ..sim import units
from .experiment import Experiment
from .figures import FigureReport, _bursty_experiment, _us
from .report import format_table
from .runner import run_named_experiments
from .server import ServerConfig


def ext_baselines(
    burst_rates: Sequence[float] = (100.0, 25.0),
    ring_size: int = 1024,
    jobs: int = 1,
) -> FigureReport:
    """DDIO vs IAT (dynamic DDIO ways) vs IDIO vs regulated IDIO.

    Shows the paper's S1 argument quantitatively: way-resizing alone trims
    the DMA leak but cannot remove dead-buffer MLC writebacks or use the
    MLC, while the pointer-following prefetcher removes the MLC-flooding
    limitation IDIO's FSM merely mitigates.
    """
    names = ("ddio", "iat", "idio", "idio-regulated")
    sweep: List[Tuple[str, Experiment]] = []
    for rate in burst_rates:
        for name in names:
            policy = policies.policy_by_name(name)
            exp = _bursty_experiment(
                f"ext-{name}-{rate:g}g", rate, ring_size
            ).with_policy(policy)
            sweep.append((f"{name}@{rate:g}g", exp))
    results = run_named_experiments(sweep, jobs=jobs)

    rows: List[Dict[str, object]] = []
    for rate in burst_rates:
        for name in names:
            result = results[f"{name}@{rate:g}g"]
            rows.append(
                {
                    "policy": name,
                    "rate_gbps": rate,
                    "mlc_wb": result.window.mlc_writebacks,
                    "llc_wb": result.window.llc_writebacks,
                    "dram_wr": result.window.dram_writes,
                    "burst_time_us": _us(result.burst_processing_time),
                    "p99_us": (result.p99_ns or 0) / 1000.0,
                }
            )

    table = format_table(
        ["policy", "rate", "MLC WB", "LLC WB", "DRAM wr", "burst us", "p99 us"],
        [
            [r["policy"], r["rate_gbps"], r["mlc_wb"], r["llc_wb"], r["dram_wr"],
             r["burst_time_us"], r["p99_us"]]
            for r in rows
        ],
        title="Extension — baseline ladder: DDIO / IAT / IDIO / regulated IDIO",
    )
    return FigureReport("ext-baselines", "Baseline ladder", rows, table, results)


def ext_recycling_modes(
    burst_rate_gbps: float = 50.0,
    ring_size: int = 512,
    policy_names: Sequence[str] = ("ddio", "idio"),
    jobs: int = 1,
) -> FigureReport:
    """The §II-B recycling modes under DDIO and IDIO.

    Run-to-completion (DPDK) is the paper's focus; the copy mode (Linux
    stack) doubles core-side memory traffic, and the re-allocate mode
    doubles the live DMA footprint.
    """
    modes = ("run_to_completion", "copy", "reallocate")
    sweep: List[Tuple[str, Experiment]] = []
    for policy_name in policy_names:
        for mode in modes:
            exp = Experiment(
                name=f"ext-recycle-{policy_name}-{mode}",
                server=ServerConfig(
                    policy=policies.policy_by_name(policy_name),
                    app="touchdrop",
                    ring_size=ring_size,
                    recycle_mode=mode,
                ),
                burst_rate_gbps=burst_rate_gbps,
            )
            sweep.append((f"{policy_name}/{mode}", exp))
    results = run_named_experiments(sweep, jobs=jobs)

    rows: List[Dict[str, object]] = []
    for policy_name in policy_names:
        for mode in modes:
            result = results[f"{policy_name}/{mode}"]
            rows.append(
                {
                    "policy": policy_name,
                    "mode": mode,
                    "mlc_wb": result.window.mlc_writebacks,
                    "llc_wb": result.window.llc_writebacks,
                    "dram_wr": result.window.dram_writes,
                    "core_accesses": sum(result.core_mem_accesses),
                    "burst_time_us": _us(result.burst_processing_time),
                    "p99_us": (result.p99_ns or 0) / 1000.0,
                }
            )

    table = format_table(
        ["policy", "recycle mode", "MLC WB", "LLC WB", "DRAM wr",
         "core accesses", "burst us", "p99 us"],
        [
            [r["policy"], r["mode"], r["mlc_wb"], r["llc_wb"], r["dram_wr"],
             r["core_accesses"], r["burst_time_us"], r["p99_us"]]
            for r in rows
        ],
        title="Extension — §II-B buffer recycling modes",
    )
    return FigureReport("ext-recycling", "Recycling modes", rows, table, results)


def ext_burst_threshold(
    thresholds_gbps: Sequence[float] = (2.0, 5.0, 10.0, 20.0, 50.0),
    burst_rate_gbps: float = 100.0,
    ring_size: int = 1024,
    jobs: int = 1,
) -> FigureReport:
    """rxBurstTHR sensitivity (the paper fixes it at 10 Gbps)."""
    sweep: List[Tuple[str, Experiment]] = [
        ("ddio", _bursty_experiment("ext-thr-ddio", burst_rate_gbps, ring_size))
    ]
    for thr in thresholds_gbps:
        policy = policies.idio().with_burst_threshold(thr)
        exp = _bursty_experiment(
            f"ext-thr-{thr:g}", burst_rate_gbps, ring_size
        ).with_policy(policy)
        sweep.append((f"thr{thr:g}", exp))
    results = run_named_experiments(sweep, jobs=jobs)

    baseline = results["ddio"]
    rows: List[Dict[str, object]] = []
    for thr in thresholds_gbps:
        result = results[f"thr{thr:g}"]
        normalized = result.normalized_to(baseline)
        rows.append(
            {
                "rx_burst_thr_gbps": thr,
                "bursts_detected": result.bursts_detected,
                **normalized,
            }
        )

    table = format_table(
        ["rxBurstTHR (Gbps)", "bursts detected", "MLC WB", "LLC WB", "DRAM wr", "Exe time"],
        [
            [r["rx_burst_thr_gbps"], r["bursts_detected"], r.get("mlc_writebacks"),
             r.get("llc_writebacks"), r.get("dram_writes"), r.get("exe_time")]
            for r in rows
        ],
        title="Extension — rxBurstTHR sweep (ratios vs DDIO)",
    )
    return FigureReport("ext-burstthr", "rxBurstTHR sweep", rows, table, results)


def ext_ring_sweep(
    ring_sizes: Sequence[int] = (256, 512, 1024, 2048),
    burst_rate_gbps: float = 25.0,
    jobs: int = 1,
) -> FigureReport:
    """Ring-size sweep under IDIO (Fig. 4 swept it only for DDIO)."""
    sweep: List[Tuple[str, Experiment]] = []
    for ring in ring_sizes:
        for name in ("ddio", "idio"):
            policy = policies.policy_by_name(name)
            exp = _bursty_experiment(
                f"ext-ring{ring}-{name}", burst_rate_gbps, ring
            ).with_policy(policy)
            sweep.append((f"{name}@ring{ring}", exp))
    results = run_named_experiments(sweep, jobs=jobs)

    rows: List[Dict[str, object]] = []
    for ring in ring_sizes:
        for name in ("ddio", "idio"):
            result = results[f"{name}@ring{ring}"]
            rows.append(
                {
                    "ring": ring,
                    "policy": name,
                    "mlc_wb": result.window.mlc_writebacks,
                    "llc_wb": result.window.llc_writebacks,
                    "dram_wr": result.window.dram_writes,
                    "burst_time_us": _us(result.burst_processing_time),
                }
            )

    table = format_table(
        ["ring", "policy", "MLC WB", "LLC WB", "DRAM wr", "burst us"],
        [
            [r["ring"], r["policy"], r["mlc_wb"], r["llc_wb"], r["dram_wr"],
             r["burst_time_us"]]
            for r in rows
        ],
        title="Extension — ring-size sweep, DDIO vs IDIO",
    )
    return FigureReport("ext-ring", "Ring-size sweep", rows, table, results)


def ext_traffic_realism(
    rate_gbps_per_nf: float = 8.0,
    imix_rate_gbps_per_nf: float = 2.0,
    duration_us: float = 1500.0,
    ring_size: int = 1024,
    jobs: int = 1,
) -> FigureReport:
    """IDIO under stochastic traffic: Poisson arrivals and IMIX sizes.

    The paper evaluates perfectly steady and perfectly periodic-burst
    traffic.  Real links carry neither: Poisson arrivals add queueing
    variance, and the IMIX size mix makes most packets header-dominated.
    This extension checks that IDIO's benefits survive both.

    IMIX gets its own (lower) bit rate: the cores are packet-rate bound,
    and IMIX's ~362 B average frame reaches the per-core pps limit at a
    fraction of the MTU-frame bit rate.
    """
    kinds = ("steady", "poisson", "imix")
    sweep: List[Tuple[str, Experiment]] = []
    for traffic in kinds:
        for name in ("ddio", "idio"):
            rate = imix_rate_gbps_per_nf if traffic == "imix" else rate_gbps_per_nf
            exp = Experiment(
                name=f"ext-traffic-{traffic}-{name}",
                server=ServerConfig(
                    policy=policies.policy_by_name(name),
                    app="touchdrop",
                    ring_size=ring_size,
                ),
                traffic=traffic,
                steady_rate_gbps_per_nf=rate,
                steady_duration=units.microseconds(duration_us),
            )
            sweep.append((f"{traffic}/{name}", exp))
    results = run_named_experiments(sweep, jobs=jobs)

    rows: List[Dict[str, object]] = []
    for traffic in kinds:
        for name in ("ddio", "idio"):
            result = results[f"{traffic}/{name}"]
            rows.append(
                {
                    "traffic": traffic,
                    "policy": name,
                    "rx": result.rx_packets,
                    "mlc_wb": result.window.mlc_writebacks,
                    "llc_wb": result.window.llc_writebacks,
                    "p99_us": (result.p99_ns or 0) / 1000.0,
                }
            )

    table = format_table(
        ["traffic", "policy", "RX pkts", "MLC WB", "LLC WB", "p99 us"],
        [
            [r["traffic"], r["policy"], r["rx"], r["mlc_wb"], r["llc_wb"], r["p99_us"]]
            for r in rows
        ],
        title="Extension — stochastic traffic (Poisson arrivals, IMIX sizes)",
    )
    return FigureReport("ext-traffic", "Traffic realism", rows, table, results)


def ext_mixed_deployment(
    burst_rate_gbps: float = 50.0,
    ring_size: int = 512,
    packet_bytes: int = 1024,
    jobs: int = 1,
) -> FigureReport:
    """Heterogeneous deployment: a class-0 and a class-1 NF share the LLC.

    Core 0 runs TouchDrop (class 0: payload processed promptly); core 1
    runs the header-only firewall variant (class 1: payload rarely used).
    Under IDIO the class-1 payload bypasses the cache hierarchy while the
    class-0 neighbor keeps its MLC steering — the per-flow differentiation
    that motivates carrying the DSCP class in the TLP bits (§V-A).
    """
    sweep: List[Tuple[str, Experiment]] = []
    for name in ("ddio", "idio"):
        exp = Experiment(
            name=f"ext-mixed-{name}",
            server=ServerConfig(
                policy=policies.policy_by_name(name),
                apps=["touchdrop", "l2fwd-payload-drop"],
                ring_size=ring_size,
                packet_bytes=packet_bytes,
            ),
            burst_rate_gbps=burst_rate_gbps,
        )
        sweep.append((name, exp))
    results = run_named_experiments(sweep, jobs=jobs)

    rows: List[Dict[str, object]] = []
    for name in ("ddio", "idio"):
        result = results[name]
        rows.append(
            {
                "policy": name,
                "direct_dram_wr": result.counters.get("direct_dram_writes", 0),
                "mlc_wb": result.window.mlc_writebacks,
                "llc_wb": result.window.llc_writebacks,
                "touchdrop_avg_us": result.per_core_mean_latency_us[0],
                "firewall_avg_us": result.per_core_mean_latency_us[1],
            }
        )

    table = format_table(
        ["policy", "direct DRAM wr", "MLC WB", "LLC WB",
         "touchdrop avg us", "firewall avg us"],
        [
            [r["policy"], r["direct_dram_wr"], r["mlc_wb"], r["llc_wb"],
             r["touchdrop_avg_us"], r["firewall_avg_us"]]
            for r in rows
        ],
        title="Extension — mixed class-0/class-1 deployment",
    )
    return FigureReport("ext-mixed", "Mixed deployment", rows, table, results)


def ext_cachedirector(
    burst_rate_gbps: float = 25.0,
    ring_size: int = 1024,
    packet_bytes: int = 1024,
    llc_slices: int = 8,
    jobs: int = 1,
) -> FigureReport:
    """CacheDirector baseline on a sliced (NUCA) LLC, vs DDIO and IDIO.

    Related work [14] steers packet headers to the LLC slice next to the
    consuming core.  On the same NUCA topology we compare plain DDIO,
    CacheDirector, and IDIO running the shallow L2Fwd NF: slice pinning
    trims header access latency but leaves every writeback pathology in
    place — the paper's argument for finer-grained control.
    """
    names = ("ddio", "cachedirector", "idio")
    sweep: List[Tuple[str, Experiment]] = []
    for name in names:
        exp = Experiment(
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
        sweep.append((name, exp))
    results = run_named_experiments(sweep, jobs=jobs)

    rows: List[Dict[str, object]] = []
    for name in names:
        result = results[name]
        rows.append(
            {
                "policy": name,
                "p50_us": (result.p50_ns or 0) / 1000.0,
                "p99_us": (result.p99_ns or 0) / 1000.0,
                "mlc_wb": result.window.mlc_writebacks,
                "llc_wb": result.window.llc_writebacks,
                "headers_steered": result.headers_steered,
            }
        )

    table = format_table(
        ["policy", "p50 us", "p99 us", "MLC WB", "LLC WB", "headers steered"],
        [
            [r["policy"], r["p50_us"], r["p99_us"], r["mlc_wb"], r["llc_wb"],
             r["headers_steered"]]
            for r in rows
        ],
        title=f"Extension — CacheDirector on a {llc_slices}-slice NUCA LLC (L2Fwd)",
    )
    return FigureReport("ext-cachedirector", "CacheDirector baseline", rows, table, results)


def ext_saturation(
    rates_gbps: Sequence[float] = (10.0, 12.0, 14.0, 16.0, 20.0),
    ring_size: int = 256,
    duration_us: float = 4000.0,
    policy_names: Sequence[str] = ("ddio", "idio"),
    jobs: int = 1,
) -> FigureReport:
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
    sweep: List[Tuple[str, Experiment]] = []
    for policy_name in policy_names:
        for rate in rates_gbps:
            exp = Experiment(
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
            sweep.append((f"{policy_name}@{rate:g}", exp))
    results = run_named_experiments(sweep, jobs=jobs)

    rows: List[Dict[str, object]] = []
    for policy_name in policy_names:
        for rate in rates_gbps:
            result = results[f"{policy_name}@{rate:g}"]
            offered = result.rx_packets + result.rx_drops
            rows.append(
                {
                    "policy": policy_name,
                    "rate_gbps": rate,
                    "offered": offered,
                    "drops": result.rx_drops,
                    "drop_pct": 100.0 * result.rx_drops / offered if offered else 0.0,
                    "p99_us": (result.p99_ns or 0) / 1000.0,
                }
            )

    table = format_table(
        ["policy", "rate (Gbps/NF)", "offered", "drops", "drop %", "p99 us"],
        [
            [r["policy"], r["rate_gbps"], r["offered"], r["drops"],
             r["drop_pct"], r["p99_us"]]
            for r in rows
        ],
        title="Extension — steady-load saturation sweep (paper: drops > ~12 Gbps/core)",
    )
    return FigureReport("ext-saturation", "Saturation sweep", rows, table, results)


def ext_inclusive_counterfactual(
    burst_rate_gbps: float = 100.0,
    ring_size: int = 1024,
    jobs: int = 1,
) -> FigureReport:
    """Inclusive-LLC counterfactual: DMA bloating needs non-inclusion.

    In an inclusive hierarchy MLC victims need no LLC allocation (the copy
    already exists), so consumed DMA buffers cannot bloat into the
    non-DDIO ways — at the price of the LLC back-invalidating MLC lines on
    its own evictions.
    """
    labels = ("non-inclusive", "inclusive")
    sweep: List[Tuple[str, Experiment]] = []
    for inclusive in (False, True):
        label = labels[int(inclusive)]
        exp = Experiment(
            name=f"ext-{label}",
            server=ServerConfig(
                app="touchdrop", ring_size=ring_size, llc_inclusive=inclusive
            ),
            burst_rate_gbps=burst_rate_gbps,
        )
        sweep.append((label, exp))
    results = run_named_experiments(sweep, jobs=jobs)

    rows: List[Dict[str, object]] = []
    for label in labels:
        result = results[label]
        rows.append(
            {
                "hierarchy": label,
                "mlc_wb": result.window.mlc_writebacks,
                "llc_wb": result.window.llc_writebacks,
                "dram_rd": result.window.dram_reads,
                "back_invalidations": result.counters.get("back_invalidations", 0),
                "burst_time_us": _us(result.burst_processing_time),
            }
        )

    table = format_table(
        ["hierarchy", "MLC WB", "LLC WB", "DRAM rd", "back-invals", "burst us"],
        [
            [r["hierarchy"], r["mlc_wb"], r["llc_wb"], r["dram_rd"],
             r["back_invalidations"], r["burst_time_us"]]
            for r in rows
        ],
        title="Extension — inclusive-LLC counterfactual (DDIO policy)",
    )
    return FigureReport("ext-inclusive", "Inclusion counterfactual", rows, table, results)
