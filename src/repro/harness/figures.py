"""Per-figure experiment definitions (the paper's evaluation section).

Each ``figN`` function builds the sweep behind one paper figure as a
:class:`~repro.harness.matrix.Matrix` — named axes, one experiment per
cell, and a table whose columns each name their header and row key once
— runs it through :func:`repro.harness.runner.run_sweep`, and returns the
:class:`~repro.harness.matrix.SweepResult`.  ``result.render()`` is the
printable report, placing the paper's reported values next to the
measured ones; ``result.rows()`` are the row dicts the claims table
(:mod:`repro.harness.claims`) reads.  Rows that compare cells (ratios
to the DDIO baseline, the p99 cut) are views over the result.

All functions accept scaling knobs so the same code path serves both quick
smoke tests (small rings, short bursts) and full paper-scale runs, plus a
``jobs`` knob: ``jobs > 1`` fans the independent runs out over the *warm
session pool* — one set of worker processes shared by every sweep of the
session, fed by spool-file broadcast (see ``docs/performance.md``), so
back-to-back figures pay no per-call fork or per-task experiment
pickling.  Cells therefore carry
:class:`~repro.harness.experiment.ExperimentSummary` objects (slim and
picklable), not live servers.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Sequence, Tuple

from ..core import policies
from ..sim import units
from . import metrics
from .experiment import Experiment, ExperimentSummary
from .matrix import Cell, Matrix, SweepResult
from .report import timeline_block
from .runner import run_sweep
from .server import ServerConfig

# ---------------------------------------------------------------------------
# Paper-reported values (for the side-by-side columns and the claims table).
# ---------------------------------------------------------------------------

#: Fig. 10 — IDIO vs DDIO reductions (percent) per burst rate, solo runs.
PAPER_FIG10_MLC_WB_REDUCTION = {100.0: 73.9, 25.0: 83.7, 10.0: 63.8}
#: Fig. 10 — burst processing time improvement (percent), solo runs.
PAPER_FIG10_EXE_IMPROVEMENT = {100.0: 18.5, 25.0: 22.0, 10.0: 0.0}
#: Fig. 10 — co-run burst processing time improvement (percent).
PAPER_FIG10_CORUN_EXE_IMPROVEMENT = {100.0: 10.9, 25.0: 20.8}
#: Fig. 10 — co-run antagonist CPI improvement (percent).
PAPER_FIG10_CORUN_ANTAGONIST_IMPROVEMENT = {100.0: 16.8, 25.0: 22.1}
#: Fig. 12 — p99 latency reduction (percent), solo / co-run per rate.
PAPER_FIG12_P99_REDUCTION_SOLO = {100.0: 7.9, 25.0: 30.5, 10.0: 10.9}
PAPER_FIG12_P99_REDUCTION_CORUN = {100.0: 6.1, 25.0: 32.0, 10.0: 8.2}
#: Fig. 4 — MLC writeback rate at ring 1024 normalized to RX line rate.
PAPER_FIG4_MLC_WB_RATIO_RING1024 = 1.52


def _bursty_experiment(
    name: str,
    burst_rate_gbps: float,
    ring_size: int,
    packet_bytes: int = 1514,
    app: str = "touchdrop",
    antagonist: bool = False,
    num_bursts: int = 1,
    packets_per_burst: Optional[int] = None,
) -> Experiment:
    return Experiment(
        name=name,
        server=ServerConfig(
            app=app,
            ring_size=ring_size,
            packet_bytes=packet_bytes,
            antagonist=antagonist,
        ),
        burst_rate_gbps=burst_rate_gbps,
        num_bursts=num_bursts,
        packets_per_burst=packets_per_burst,
    )


def _us(ticks: Optional[int]) -> Optional[float]:
    if ticks is None:
        return None
    return units.to_microseconds(ticks)


def _us_f(ns: Optional[float]) -> Optional[float]:
    if ns is None:
        return None
    return ns / 1000.0


def _paper_norm(table: Dict[float, float], rate: float) -> Optional[float]:
    """Convert a paper 'X % reduction' entry into a normalized ratio."""
    pct = table.get(rate)
    if pct is None:
        return None
    return 1.0 - pct / 100.0


def _offered(s: ExperimentSummary) -> int:
    return s.rx_packets + s.rx_drops


#: The row fields a figure reads off one cell's summary, by row key.
STATS: Dict[str, Callable[[ExperimentSummary], Any]] = {
    "config": lambda s: s.experiment.name,
    "mlc_wb": lambda s: s.window.mlc_writebacks,
    "llc_wb": lambda s: s.window.llc_writebacks,
    "dram_rd": lambda s: s.window.dram_reads,
    "dram_wr": lambda s: s.window.dram_writes,
    "burst_time_us": lambda s: _us(s.burst_processing_time),
    "p50_us": lambda s: (s.p50_ns or 0) / 1000.0,
    "p99_us": lambda s: (s.p99_ns or 0) / 1000.0,
    "rx": lambda s: s.rx_packets,
    "rx_drops": lambda s: s.rx_drops,
    "drops": lambda s: s.rx_drops,
    "offered": _offered,
    "drop_pct": lambda s: 100.0 * s.rx_drops / _offered(s) if _offered(s) else 0.0,
    "tx_packets": lambda s: s.tx_packets,
    "direct_dram_wr": lambda s: s.counters.get("direct_dram_writes", 0),
    "back_invalidations": lambda s: s.counters.get("back_invalidations", 0),
    "core_accesses": lambda s: sum(s.core_mem_accesses),
    "headers_steered": lambda s: s.headers_steered,
    "bursts_detected": lambda s: s.bursts_detected,
    "touchdrop_avg_us": lambda s: s.per_core_mean_latency_us[0],
    "firewall_avg_us": lambda s: s.per_core_mean_latency_us[1],
    "mlc_wb_per_rx_line": lambda s: s.rate_per_rx_line("mlc_writebacks"),
    "mlc_inval_per_rx_line": lambda s: s.rate_per_rx_line("mlc_invalidations"),
    "dram_read_gbps": lambda s: s.dram_gbps("dram_reads"),
    "dram_write_gbps": lambda s: s.dram_gbps("dram_writes"),
}

#: The normalized-ratio columns of Figs. 10/14 and the rxBurstTHR sweep.
RATIO_COLUMNS = (("MLC WB", "mlc_writebacks"), ("LLC WB", "llc_writebacks"),
                 ("DRAM rd", "dram_reads"), ("DRAM wr", "dram_writes"),
                 ("Exe time", "exe_time"))


def _figure(
    axes: Sequence[str],
    keys: Iterable[tuple],
    cell: Callable[..., Experiment],
    jobs: int,
    **view: Any,
) -> SweepResult:
    """Run one figure's matrix and raise its first failure.

    Without a ``rows`` view each cell is one row: its axis values plus
    every column's :data:`STATS` field.
    """

    def cell_rows(result: SweepResult) -> Iterator[Dict[str, Any]]:
        fields = [key for _, key in result.matrix.table_columns]
        for c in result.cells:
            axis_values = dict(zip(axes, c.key))
            yield {**axis_values,
                   **{k: STATS[k](c.summary) for k in fields if k not in axis_values}}

    view.setdefault("rows", cell_rows)
    result = run_sweep(Matrix.build(axes, keys, cell, **view), jobs=jobs, retries=0)
    result.raise_first_failure()
    return result


def _vs_ddio(result: SweepResult, *shared: str) -> Iterator[Tuple[Cell, ExperimentSummary]]:
    """Each non-DDIO cell with the summary of the DDIO cell that shares
    its ``shared`` axis values (its baseline)."""
    for c in result.cells:
        if c.policy != "ddio":
            yield c, result.cell(policy="ddio", **{a: getattr(c, a) for a in shared}).summary


def _timelines(cells: Sequence[Cell], label: Callable[[Cell], str]) -> Iterator[str]:
    for c in cells:
        for stream, name in (("mlc_writebacks", "MLC WB"), ("llc_writebacks", "LLC WB")):
            yield timeline_block(f"{label(c)} {name}", c.summary.timeline(stream))


def _lines(text: str) -> Callable[[SweepResult], Sequence[str]]:
    return lambda _: text.split("\n")


# ---------------------------------------------------------------------------
# Fig. 4 — MLC and DRAM leaks vs load level and ring size (DDIO baseline)
# ---------------------------------------------------------------------------

def fig4(
    ring_sizes: Sequence[int] = (64, 1024, 2048),
    loads_gbps_per_nf: Dict[str, float] = None,
    duration_us: float = 1500.0,
    packet_bytes: int = 1514,
    include_1way: bool = True,
    ring_wraps: float = 1.5,
    max_duration_us: float = 30_000.0,
    jobs: int = 1,
) -> SweepResult:
    """Fig. 4: steady-load MLC/DRAM leak characterization under DDIO.

    The paper's physical experiment runs 10 NFs at aggregate loads of
    8 Mbps / 1 Gbps / 20 Gbps; our simulated server runs 2 NF cores, so
    the per-NF load levels below keep the same per-core pressure ordering
    (low ≪ med < high, with high near the per-core saturation point).

    The measurement window per cell is stretched so the NIC wraps the DMA
    ring at least ``ring_wraps`` times (the paper measures in steady
    state; a window shorter than one wrap would miss the MLC-invalidation
    and writeback steady-state behavior at low loads), capped at
    ``max_duration_us``.
    """
    if loads_gbps_per_nf is None:
        loads_gbps_per_nf = {"low": 1.0, "med": 4.0, "high": 10.0}
    keys = [(load, ring, False) for ring in ring_sizes for load in loads_gbps_per_nf]
    if include_1way:
        keys += [("high", ring, True) for ring in ring_sizes if ring >= 1024]

    def cell(load_name: str, ring: int, one_way: bool) -> Experiment:
        load = loads_gbps_per_nf[load_name]
        wire_bits = (packet_bytes + 24) * 8
        needed_us = ring * ring_wraps * wire_bits / (load * 1e3)
        return Experiment(
            name=f"fig4-{load_name}-ring{ring}{'-1way' if one_way else ''}",
            server=ServerConfig(
                app="touchdrop",
                ring_size=ring,
                packet_bytes=packet_bytes,
                nf_cat_ways=1 if one_way else None,
            ),
            traffic="steady",
            steady_rate_gbps_per_nf=load,
            steady_duration=units.microseconds(
                min(max(duration_us, needed_us), max_duration_us)
            ),
        )

    return _figure(
        ("load", "ring", "one_way"), keys, cell, jobs,
        title="Fig. 4 — MLC/DRAM leaks vs load and ring size (DDIO)",
        columns=("config", ("MLC WB / RX line", "mlc_wb_per_rx_line"),
                 ("MLC inval / RX line", "mlc_inval_per_rx_line"),
                 ("DRAM rd Gbps", "dram_read_gbps"), ("DRAM wr Gbps", "dram_write_gbps"),
                 ("drops", "rx_drops")),
        footer=_lines(
            "Paper shape: ring 64 -> low MLC WB ratio & high invalidation ratio;"
            f"\n  ring >= 1024 -> MLC WB ratio ~{PAPER_FIG4_MLC_WB_RATIO_RING1024}x RX"
            " at every load; _1way at high load -> much higher DRAM write BW."
        ),
    )


# ---------------------------------------------------------------------------
# Fig. 5 — MLC/LLC writeback timeline over bursts (DDIO baseline)
# ---------------------------------------------------------------------------

def fig5(
    ring_size: int = 1024,
    num_bursts: int = 3,
    burst_rate_gbps: float = 100.0,
    burst_period_ms: float = 10.0,
    jobs: int = 1,
) -> SweepResult:
    """Fig. 5: writeback phases (DMA phase vs execution phase) under DDIO.

    One row per writeback stream (its total and peak rate); the report is
    the timelines and totals, with no table.
    """

    def cell(policy: str) -> Experiment:
        exp = _bursty_experiment("fig5", burst_rate_gbps, ring_size, num_bursts=num_bursts)
        return replace(exp, burst_period=units.milliseconds(burst_period_ms))

    def rows(result: SweepResult) -> Iterator[Dict[str, object]]:
        summary = result.cell(policy="ddio").summary
        for stream in ("mlc_writebacks", "llc_writebacks"):
            yield {
                "stream": stream,
                "total": getattr(summary.window, stream),
                "peak_mtps": max((v for _, v in summary.timeline(stream)), default=0.0),
            }

    def header(result: SweepResult) -> Iterator[str]:
        s = result.cell(policy="ddio").summary
        yield "Fig. 5 — writebacks processing bursty traffic (DDIO, TouchDrop)"
        yield timeline_block("DMA writes", s.timeline("pcie_writes"))
        yield timeline_block("MLC writebacks", s.timeline("mlc_writebacks"))
        yield timeline_block("LLC writebacks", s.timeline("llc_writebacks"))
        yield (f"totals: MLC WB={s.window.mlc_writebacks} "
               f"LLC WB={s.window.llc_writebacks} DRAM wr={s.window.dram_writes}")

    return _figure(
        ("policy",), [("ddio",)], cell, jobs, rows=rows, header=header,
        footer=_lines(
            "Paper shape: LLC WBs spike during the DMA phase (DMA leak), MLC"
            "\nWBs dominate the execution phase (dead-buffer writebacks)."
        ),
    )


# ---------------------------------------------------------------------------
# Fig. 9 — per-policy writeback timelines at 100/25 Gbps bursts
# ---------------------------------------------------------------------------

FIG9_POLICY_ORDER = ["ddio", "invalidate", "prefetch", "static", "idio"]


def fig9(
    burst_rates: Sequence[float] = (100.0, 25.0),
    ring_size: int = 1024,
    policy_names: Sequence[str] = tuple(FIG9_POLICY_ORDER),
    jobs: int = 1,
) -> SweepResult:
    """Fig. 9: the five placement configurations, one burst each."""

    def cell(rate: float, name: str) -> Experiment:
        return _bursty_experiment(f"fig9-{name}-{rate:g}g", rate, ring_size).with_policy(
            policies.policy_by_name(name)
        )

    def header(result: SweepResult) -> Iterator[str]:
        yield "Fig. 9 — per-policy writebacks (TouchDrop, one burst)"
        yield from _timelines(result.cells, lambda c: f"{c.policy}@{c.rate_gbps:g}g")

    return _figure(
        ("rate_gbps", "policy"), product(burst_rates, policy_names), cell, jobs,
        columns=("policy", ("rate", "rate_gbps"), ("MLC WB", "mlc_wb"), ("LLC WB", "llc_wb"),
                 ("DRAM wr", "dram_wr"), ("burst time us", "burst_time_us")),
        header=header,
        footer=_lines(
            "Paper shape: Invalidate kills most MLC WBs; Prefetch shortens the"
            "\nburst; Static == IDIO except MLC WB overshoot at 100 Gbps; IDIO"
            "\ncuts LLC WBs at every rate."
        ),
    )


# ---------------------------------------------------------------------------
# Fig. 10 — normalized transactions + burst processing time
# ---------------------------------------------------------------------------

def fig10(
    burst_rates: Sequence[float] = (100.0, 25.0, 10.0),
    ring_size: int = 1024,
    include_static: bool = True,
    include_corun: bool = True,
    corun_rates: Sequence[float] = (100.0, 25.0),
    jobs: int = 1,
) -> SweepResult:
    """Fig. 10: Static/IDIO stats normalized to DDIO, plus the co-run."""
    names = ["ddio", "static", "idio"] if include_static else ["ddio", "idio"]
    keys = [("solo", rate, name) for rate in burst_rates for name in names]
    if include_corun:
        keys += [("corun", rate, name) for rate in corun_rates for name in ("ddio", "idio")]

    def cell(scenario: str, rate: float, name: str) -> Experiment:
        corun = scenario == "corun"
        return _bursty_experiment(
            f"fig10-{name}-{rate:g}g{'-corun' if corun else ''}", rate, ring_size,
            antagonist=corun,
        ).with_policy(policies.policy_by_name(name))

    def rows(result: SweepResult) -> Iterator[Dict[str, object]]:
        for c, base in _vs_ddio(result, "scenario", "rate_gbps"):
            s, idio, solo = c.summary, c.policy == "idio", c.scenario == "solo"
            row: Dict[str, object] = {
                "scenario": c.scenario,
                "policy": c.policy,
                "rate_gbps": c.rate_gbps,
                **s.normalized_to(base),
                "paper_mlc_wb": _paper_norm(PAPER_FIG10_MLC_WB_REDUCTION, c.rate_gbps)
                if solo and idio else None,
                "paper_exe": _paper_norm(
                    PAPER_FIG10_EXE_IMPROVEMENT if solo else PAPER_FIG10_CORUN_EXE_IMPROVEMENT,
                    c.rate_gbps,
                ) if idio else None,
            }
            if not solo and s.antagonist_access_ns and base.antagonist_access_ns:
                row["antagonist_access_ratio"] = (
                    s.antagonist_access_ns / base.antagonist_access_ns
                )
            yield row

    return _figure(
        ("scenario", "rate_gbps", "policy"), keys, cell, jobs, rows=rows,
        title="Fig. 10 — transactions & exe time normalized to DDIO (lower is better)",
        columns=("scenario", "policy", ("rate", "rate_gbps"),
                 *((f"{header} (norm)", key) for header, key in RATIO_COLUMNS),
                 ("paper MLC WB", "paper_mlc_wb"), ("paper Exe", "paper_exe")),
    )


# ---------------------------------------------------------------------------
# Fig. 11 — L2Fwd timelines (shallow NF) + direct DRAM variant
# ---------------------------------------------------------------------------

def fig11(
    burst_rate_gbps: float = 100.0,
    ring_size: int = 1024,
    packet_bytes: int = 1024,
    include_payload_drop: bool = True,
    jobs: int = 1,
) -> SweepResult:
    """Fig. 11: zero-copy L2Fwd under DDIO vs IDIO, plus the class-1 variant."""
    configs = ["ddio", "idio"] + (["idio-payload-drop"] if include_payload_drop else [])

    def cell(config: str) -> Experiment:
        if config == "idio-payload-drop":
            return _bursty_experiment(
                "fig11-payload-drop", burst_rate_gbps, ring_size, packet_bytes,
                app="l2fwd-payload-drop",
            ).with_policy(policies.idio())
        return _bursty_experiment(
            f"fig11-{config}", burst_rate_gbps, ring_size, packet_bytes, app="l2fwd"
        ).with_policy(policies.policy_by_name(config))

    def header(result: SweepResult) -> Iterator[str]:
        yield "Fig. 11 — L2Fwd (zero-copy forward), 1024 B packets"
        yield from _timelines(result.cells[:2], lambda c: c.config)

    return _figure(
        ("config",), [(config,) for config in configs], cell, jobs,
        columns=("config", ("MLC WB", "mlc_wb"), ("LLC WB", "llc_wb"), ("DRAM wr", "dram_wr"),
                 ("direct DRAM wr", "direct_dram_wr"), ("TX pkts", "tx_packets")),
        header=header,
        footer=_lines(
            "Paper shape: DDIO shows ~no MLC activity but rising LLC WBs; IDIO"
            "\nadmits data to the idle MLC and invalidates after TX; the class-1"
            "\nvariant pushes payload DRAM writes ~= RX bandwidth."
        ),
    )


# ---------------------------------------------------------------------------
# Fig. 12 — p50/p99 packet latency, solo and co-run
# ---------------------------------------------------------------------------

def fig12(
    burst_rates: Sequence[float] = (100.0, 25.0, 10.0),
    ring_size: int = 1024,
    include_corun: bool = True,
    jobs: int = 1,
) -> SweepResult:
    """Fig. 12: tail latency of TouchDrop under DDIO vs IDIO."""
    scenarios = ["solo", "corun"] if include_corun else ["solo"]

    def cell(scenario: str, rate: float, name: str) -> Experiment:
        return _bursty_experiment(
            f"fig12-{name}-{rate:g}g-{scenario}", rate, ring_size,
            antagonist=scenario == "corun",
        ).with_policy(policies.policy_by_name(name))

    def rows(result: SweepResult) -> Iterator[Dict[str, object]]:
        for c, base in _vs_ddio(result, "scenario", "rate_gbps"):
            s = c.summary
            paper = (PAPER_FIG12_P99_REDUCTION_SOLO if c.scenario == "solo"
                     else PAPER_FIG12_P99_REDUCTION_CORUN)
            yield {
                "scenario": c.scenario,
                "rate_gbps": c.rate_gbps,
                "ddio_p50_us": _us_f(base.p50_ns),
                "idio_p50_us": _us_f(s.p50_ns),
                "ddio_p99_us": _us_f(base.p99_ns),
                "idio_p99_us": _us_f(s.p99_ns),
                "p99_reduction_pct": metrics.reduction_percent(
                    base.p99_ns or 0.0, s.p99_ns or 0.0
                ),
                "paper_p99_reduction_pct": paper.get(c.rate_gbps),
            }

    return _figure(
        ("scenario", "rate_gbps", "policy"),
        product(scenarios, burst_rates, ("ddio", "idio")), cell, jobs, rows=rows,
        title="Fig. 12 — TouchDrop latency percentiles (1514 B packets)",
        columns=("scenario", ("rate", "rate_gbps"), ("DDIO p50 us", "ddio_p50_us"),
                 ("IDIO p50 us", "idio_p50_us"), ("DDIO p99 us", "ddio_p99_us"),
                 ("IDIO p99 us", "idio_p99_us"), ("p99 cut %", "p99_reduction_pct"),
                 ("paper p99 cut %", "paper_p99_reduction_pct")),
    )


# ---------------------------------------------------------------------------
# Fig. 13 — steady-traffic writeback timelines
# ---------------------------------------------------------------------------

def fig13(
    rate_gbps_per_nf: float = 10.0,
    ring_size: int = 1024,
    duration_us: float = 1500.0,
    jobs: int = 1,
) -> SweepResult:
    """Fig. 13: steady 10 Gbps/NF TouchDrop under DDIO vs IDIO."""

    def cell(name: str) -> Experiment:
        return Experiment(
            name=f"fig13-{name}",
            server=ServerConfig(app="touchdrop", ring_size=ring_size),
            traffic="steady",
            steady_rate_gbps_per_nf=rate_gbps_per_nf,
            steady_duration=units.microseconds(duration_us),
        ).with_policy(policies.policy_by_name(name))

    def header(result: SweepResult) -> Iterator[str]:
        yield f"Fig. 13 — steady {rate_gbps_per_nf:g} Gbps per NF (TouchDrop)"
        yield from _timelines(result.cells, lambda c: c.policy)

    return _figure(
        ("policy",), [("ddio",), ("idio",)], cell, jobs,
        columns=("policy", ("MLC WB", "mlc_wb"), ("LLC WB", "llc_wb"), ("DRAM wr", "dram_wr"),
                 ("drops", "rx_drops")),
        header=header,
        footer=_lines(
            "Paper shape: DDIO shows consistent MLC (and some LLC) WBs at steady"
            "\nload; IDIO's self-invalidation removes most of them."
        ),
    )


# ---------------------------------------------------------------------------
# Fig. 14 — sensitivity to mlcTHR
# ---------------------------------------------------------------------------

def fig14(
    thresholds_mtps: Sequence[float] = (10.0, 25.0, 50.0, 75.0, 100.0),
    burst_rate_gbps: float = 100.0,
    ring_size: int = 1024,
    jobs: int = 1,
) -> SweepResult:
    """Fig. 14: sweep mlcTHR from 10 to 100 MTPS at the 100 Gbps burst."""

    def cell(name: str, thr: Optional[float]) -> Experiment:
        if thr is None:
            return _bursty_experiment("fig14-ddio", burst_rate_gbps, ring_size)
        return _bursty_experiment(
            f"fig14-idio-thr{thr:g}", burst_rate_gbps, ring_size
        ).with_policy(policies.idio().with_threshold(thr))

    def rows(result: SweepResult) -> Iterator[Dict[str, object]]:
        for c, base in _vs_ddio(result):
            yield {"mlc_thr_mtps": c.mlc_thr_mtps, **c.summary.normalized_to(base)}

    return _figure(
        ("policy", "mlc_thr_mtps"),
        [("ddio", None), *(("idio", thr) for thr in thresholds_mtps)], cell, jobs, rows=rows,
        title="Fig. 14 — IDIO/DDIO ratios vs mlcTHR (100 Gbps burst; flat = insensitive)",
        columns=(("mlcTHR (MTPS)", "mlc_thr_mtps"), *RATIO_COLUMNS),
    )
