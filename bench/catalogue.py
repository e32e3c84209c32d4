"""The benchmark's end-to-end metrics: unit, direction, bound and definition.

``BENCHMARK.json`` declares the subset that every workload reports, that
is never zero, and whose spread across seeds stays well inside its bound
(the driver contract); the rest are printed by ``bench/run.py`` and
compared by ``bench/compare.py`` all the same.

``bound`` is the share of the baseline median by which a metric may get
worse.  An ``exact`` metric is deterministic for a given seed, so
``compare.py`` counts any change at all in the worse direction as worse;
its ``bound`` is the cross-seed tolerance ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

ALL = None


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float
    definition: str
    exact: bool = False
    #: Workloads the metric is defined on (``ALL`` = every workload).
    on: Optional[Tuple[str, ...]] = ALL


END_TO_END: Tuple[Metric, ...] = (
    Metric(
        "wall_s", "s", "lower", 0.25,
        "median host wall time of one timed rep (the cold sweep on tenants_sweep), "
        "tracing off, at reference host speed",
    ),
    Metric(
        "events_per_s", "events/s", "higher", 0.25,
        "median over the timed reps of simulated events / host seconds",
    ),
    Metric(
        "setup_s", "s", "lower", 0.25,
        "median of 5 fresh-process starts, from before spawn until the first server is "
        "built and warmed up: interpreter start, import repro, pool creation (tenants_sweep), "
        "SimulatedServer(...) and .start()",
    ),
    Metric(
        "warm_s", "s", "lower", 0.25,
        "median host wall time of a sweep re-run served entirely from the result cache",
        on=("tenants_sweep",),
    ),
    Metric(
        "peak_rss_mb", "MB", "lower", 0.15,
        "max ru_maxrss over the workload process and its children",
    ),
    Metric(
        "failed_frac", "ratio", "lower", 0.0,
        "failed operations / attempted operations; a rep, setup start or cached re-run "
        "that raises or fails a correctness gate counts as failed",
        exact=True,
    ),
    Metric(
        "drop_frac", "ratio", "lower", 0.0,
        "rx_drops / offered packets over the rep's simulations",
        exact=True,
    ),
    Metric(
        "sim_p50_us", "sim_us", "lower", 0.10,
        "median packet latency, simulated; the IDIO half on fig10_corun, the victim in the "
        "ioca cell at intensity 0.25 on tenants_sweep",
        exact=True,
    ),
    Metric(
        "sim_tail_us", "sim_us", "lower", 0.20,
        "p99 packet latency, simulated; the IDIO half on fig10_corun, the victim's p95 in "
        "the ioca cell at intensity 0.25 on tenants_sweep (sim_tail_samples holds the count)",
        exact=True,
    ),
    Metric(
        "sim_exe_us", "sim_us", "lower", 0.05,
        "first DMA write to last packet completion, simulated (Fig. 10 'exe'); the IDIO "
        "half on fig10_corun, the ioca cell at intensity 2.0 on tenants_sweep",
        exact=True,
    ),
    Metric(
        "sim_mlc_wb_per_pkt", "lines/pkt", "lower", 0.05,
        "MLC writebacks / completed packets, same simulation as sim_exe_us",
        exact=True,
    ),
    Metric(
        "sim_dram_lines_per_pkt", "lines/pkt", "lower", 0.05,
        "(DRAM reads + writes) / completed packets, same simulation as sim_exe_us",
        exact=True,
    ),
    Metric(
        "paper_gap_pp", "pct-points", "lower", 0.0,
        "|simulated IDIO-vs-DDIO co-run exe improvement - the paper's 10.9%|",
        exact=True,
        on=("fig10_corun",),
    ),
)

BY_NAME = {m.name: m for m in END_TO_END}

