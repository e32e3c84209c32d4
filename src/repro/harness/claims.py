"""The paper's claims as one table, graded by ``repro validate`` and ``benchmarks/``.

A :class:`Claim` reads the rows of one figure's
:class:`~repro.harness.matrix.SweepResult` (``SweepResult.rows()``).  Its
checks are predicates with their bounds, written as comparisons of row
fields picked by axis value::

    Row(scenario="solo", policy="idio", rate_gbps=25.0).exe_time < 0.90
    Row(policy="idio").llc_wb < 0.6 * Row(policy="ddio").llc_wb

A selector picks every row whose items include its values (a tuple value
matches any of its items), and a check holds when it holds for every
picked row.  A reference that picks one row bounds all of them; one that
picks as many rows pairs with them in order.  ``.spread`` and ``.count``
fold the picked rows, and :func:`Measure` reads the result directly (the
timeline claims of Figs. 5 and 13).

Each suite runs each figure once.  ``repro validate`` runs
:data:`VALIDATE_RUNS` with 512-entry rings under ``--quick`` and 1024
otherwise; ``benchmarks/`` runs :data:`PAPER_RUNS`.  A claim names its
figure (its id's prefix) and the suites whose runs it reads, so the
figure name and the suite's keyword arguments are the run it reads.
Every bound and every paper number is written once, here.  A claim
marked ``deviation`` checks a bound the reproduction meets where the
paper reports a different value.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..sim import units
from . import extensions, figures
from .figures import (
    PAPER_FIG4_MLC_WB_RATIO_RING1024,
    PAPER_FIG10_CORUN_ANTAGONIST_IMPROVEMENT,
    PAPER_FIG10_CORUN_EXE_IMPROVEMENT,
    PAPER_FIG10_EXE_IMPROVEMENT,
    PAPER_FIG12_P99_REDUCTION_SOLO,
)
from .matrix import SweepResult
from .report import format_table
from .runner import pool_session

#: Every figure and extension, by the name ``repro figure`` takes.
FIGURES: Dict[str, Callable[..., SweepResult]] = {
    "fig4": figures.fig4,
    "fig5": figures.fig5,
    "fig9": figures.fig9,
    "fig10": figures.fig10,
    "fig11": figures.fig11,
    "fig12": figures.fig12,
    "fig13": figures.fig13,
    "fig14": figures.fig14,
    "ext-baselines": extensions.ext_baselines,
    "ext-recycling": extensions.ext_recycling_modes,
    "ext-burstthr": extensions.ext_burst_threshold,
    "ext-ring": extensions.ext_ring_sweep,
    "ext-inclusive": extensions.ext_inclusive_counterfactual,
    "ext-saturation": extensions.ext_saturation,
    "ext-cachedirector": extensions.ext_cachedirector,
    "ext-mixed": extensions.ext_mixed_deployment,
    "ext-traffic": extensions.ext_traffic_realism,
}

#: The runs ``repro validate`` reads, before its ``ring_size``.
VALIDATE_RUNS: Dict[str, Dict[str, Any]] = {
    "fig9": dict(burst_rates=(100.0, 25.0)),
    "fig10": dict(burst_rates=(100.0, 25.0, 10.0), include_static=False,
                  include_corun=True, corun_rates=(25.0,)),
    "fig11": {},
    "fig12": dict(burst_rates=(100.0, 25.0), include_corun=False),
    "fig13": dict(duration_us=1500.0),
    "fig14": dict(thresholds_mtps=(10.0, 50.0, 100.0)),
    "ext-baselines": dict(burst_rates=(100.0,)),
}

#: The paper-scale runs ``benchmarks/`` reads.
PAPER_RUNS: Dict[str, Dict[str, Any]] = {
    "fig4": dict(ring_sizes=(64, 1024, 2048), max_duration_us=20_000.0),
    "fig5": dict(ring_size=1024, num_bursts=3),
    "fig9": dict(burst_rates=(100.0, 25.0), ring_size=1024),
    "fig10": dict(burst_rates=(100.0, 25.0, 10.0), ring_size=1024, include_static=True,
                  include_corun=True),
    "fig11": dict(burst_rate_gbps=100.0, ring_size=1024, packet_bytes=1024,
                  include_payload_drop=True),
    "fig12": dict(burst_rates=(100.0, 25.0, 10.0), ring_size=1024, include_corun=True),
    "fig13": dict(rate_gbps_per_nf=10.0, ring_size=1024, duration_us=2500.0),
    "fig14": dict(thresholds_mtps=(10.0, 25.0, 50.0, 75.0, 100.0), burst_rate_gbps=100.0,
                  ring_size=1024),
    "ext-baselines": dict(burst_rates=(100.0, 25.0)),
    "ext-cachedirector": dict(ring_size=1024),
    "ext-mixed": dict(ring_size=512),
    "ext-recycling": dict(ring_size=512),
    "ext-saturation": dict(rates_gbps=(10.0, 12.0, 14.0, 16.0, 20.0)),
    "ext-burstthr": dict(thresholds_gbps=(2.0, 10.0, 50.0), ring_size=1024),
    "ext-ring": dict(ring_sizes=(256, 1024)),
    "ext-inclusive": dict(ring_size=1024),
    "ext-traffic": dict(duration_us=1500.0),
}

PAPER = ("paper",)
VALIDATE = ("validate",)
BOTH = ("validate", "paper")

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
        "==": operator.eq}


def _matches(value: Any, want: Any) -> bool:
    return value in want if isinstance(want, tuple) else value == want


class Term:
    """Numbers read off a figure's result: ``field`` of each row whose
    items include ``where`` (times ``scale``, plus ``offset``), folded by
    ``fold``; or ``measure(result)``."""

    def __init__(self, where: Mapping[str, Any], field: str = "",
                 measure: Optional[Callable[[SweepResult], Any]] = None) -> None:
        self.where, self.field, self.measure = where, field, measure
        self.scale, self.offset, self.fold = 1.0, 0.0, ""

    def _with(self, **changes: Any) -> "Term":
        term = Term(self.where, self.field, self.measure)
        term.__dict__.update({**self.__dict__, **changes})
        return term

    def __mul__(self, k: float) -> "Term":
        return self._with(scale=self.scale * k, offset=self.offset * k)

    __rmul__ = __mul__

    def __add__(self, k: float) -> "Term":
        return self._with(offset=self.offset + k)

    @property
    def spread(self) -> "Term":
        return self._with(fold="spread")

    @property
    def count(self) -> "Term":
        return self._with(fold="count")

    def __lt__(self, bound: Any) -> "Check":
        return Check(self, "<", bound)

    def __le__(self, bound: Any) -> "Check":
        return Check(self, "<=", bound)

    def __gt__(self, bound: Any) -> "Check":
        return Check(self, ">", bound)

    def __ge__(self, bound: Any) -> "Check":
        return Check(self, ">=", bound)

    def __eq__(self, bound: Any) -> "Check":  # type: ignore[override]
        return Check(self, "==", bound)

    __hash__ = None  # type: ignore[assignment]

    def values(self, result: SweepResult) -> List[Any]:
        """One raw value per picked row, or one folded/measured value."""
        if self.measure is not None:
            return [self.measure(result)]
        rows = [r for r in result.rows()
                if all(_matches(r.get(k), v) for k, v in self.where.items())]
        if not rows:
            raise LookupError(f"no {self.field} row has {dict(self.where)}")
        values = [row.get(self.field) for row in rows]
        if self.fold == "count":
            return [len(values)]
        if self.fold == "spread":
            return [max(values) - min(values)]
        return values

    def bound(self, value: Any) -> Any:
        return None if value is None else value * self.scale + self.offset


class Row:
    """``Row(**axis_values).field`` is the :class:`Term` for ``field``."""

    def __init__(self, **where: Any) -> None:
        self._where = where

    def __getattr__(self, field: str) -> Term:
        if field.startswith("_"):
            raise AttributeError(field)
        return Term(self._where, field)


def Measure(measure: Callable[[SweepResult], Any]) -> Term:
    """A term computed from the whole result."""
    return Term({}, measure=measure)


class Shown:
    """A measured number for the scorecard that never prints equal to the
    number it is compared with: a format spec's precision grows until the
    two differ (``0.99963`` against ``< 1.0`` reads ``0.9996``, not ``1``)."""

    def __init__(self, value: Any, other: Any = None, ref: Optional["Shown"] = None,
                 bound: Optional["Shown"] = None) -> None:
        #: ``ref`` and ``bound`` (the check's reference value and limit)
        #: are what ``{0.ref}`` and ``{0.bound}`` print.
        self.value, self.other, self.ref, self.bound = value, other, ref, bound

    def __format__(self, spec: str) -> str:
        if self.value is None:
            return "-"
        text = format(self.value, spec)
        match = re.fullmatch(r"(.*\.)(\d+)(\D?)", spec)
        digits = int(match[2]) if match else 0
        while (match and self.other is not None and self.value != self.other
               and text == format(self.other, spec) and digits < 17):
            digits += 1
            spec = f"{match[1]}{digits}{match[3]}"
            text = format(self.value, spec)
        return text


@dataclass(frozen=True, eq=False)
class Check:
    """``term`` compared by ``op`` with ``bound``: a number, a
    reference :class:`Term`, or a function of the result."""

    term: Term
    op: str
    bound: Union[float, Term, Callable[[SweepResult], Any]]

    def __call__(self, result: SweepResult) -> Tuple[bool, Shown]:
        values = self.term.values(result)
        if isinstance(self.bound, Term):
            refs = self.bound.values(result)
            if len(refs) == 1:
                refs = refs * len(values)
            if len(refs) != len(values):
                raise LookupError(f"{len(refs)} reference rows for {len(values)} rows")
            limits = [self.bound.bound(ref) for ref in refs]
        else:
            limit = self.bound(result) if callable(self.bound) else self.bound
            refs, limits = [None] * len(values), [limit] * len(values)
        op = _OPS[self.op]
        graded = [
            (value is not None and limit is not None and op(value, limit), value, ref, limit)
            for value, ref, limit in zip(values, refs, limits)
        ]
        failed = [g for g in graded if not g[0]]
        sign = -1.0 if self.op.startswith(">") else 1.0
        ok, value, ref, limit = failed[0] if failed else max(
            graded, key=lambda g: sign * (g[1] - g[3])
        )
        return ok, Shown(value, limit, ref=Shown(ref, value), bound=Shown(limit, value))


@dataclass(frozen=True, eq=False)
class Claim:
    """One paper claim: its checks on the rows of figure ``run``."""

    id: str
    label: str
    paper: str
    checks: Tuple[Check, ...]
    suites: Tuple[str, ...] = PAPER
    #: The scorecard's measured column, formatted from each check's
    #: :class:`Shown` value (``{0.ref}``: its reference row's value).
    show: str = ""
    #: The scorecard's figure column (default: the figure run).
    figure: str = ""
    deviation: bool = False

    @property
    def run(self) -> str:
        return self.id.split(".")[0]

    def evaluate(self, result: SweepResult) -> "Verdict":
        try:
            outcomes = [check(result) for check in self.checks]
        except LookupError as exc:
            return Verdict(self, False, str(exc))
        show = self.show or (
            "{0} vs {0.ref}" if isinstance(self.checks[0].bound, Term) else "{0:.3g}"
        )
        return Verdict(self, all(ok for ok, _ in outcomes),
                       show.format(*(shown for _, shown in outcomes)))


@dataclass
class Verdict:
    """A claim's grade on one result, with its measured column."""

    claim: Claim
    passed: bool
    measured: str


def claim(id: str, label: str, paper: str, *checks: Check, **options: Any) -> Claim:
    return Claim(id, label, paper, checks, **options)


def _ratio(pct: float) -> str:
    """A paper 'X % reduction' as the normalized ratio it leaves."""
    return f"{1 - pct / 100:.3f}x"


# ---------------------------------------------------------------------------
# Claims the rows cannot state directly
# ---------------------------------------------------------------------------

def _static_idio_gap(result: SweepResult) -> float:
    """|Static - IDIO| MLC WBs at 25 Gbps over the allowed gap,
    max(100, 30% of Static's)."""
    mlc = {r["policy"]: r["mlc_wb"] for r in result.rows() if r["rate_gbps"] == 25.0}
    return abs(mlc["static"] - mlc["idio"]) / max(100, 0.3 * (mlc["static"] + 1))


def _payload_lines(result: SweepResult) -> int:
    """Payload lines the class-1 run DMAs: every ring entry of every NF
    core, all but the header line."""
    server = result.cell(config="idio-payload-drop").experiment.server
    return server.num_nf_cores * server.ring_size * (server.packet_bytes // 64 - 1)


def _llc_lead_us(result: SweepResult) -> Optional[float]:
    """How long the first LLC writeback precedes the MLC writeback peak."""
    summary = result.cell(policy="ddio").summary
    first_llc = next((t for t, v in summary.timeline("llc_writebacks") if v > 0), None)
    peak_mlc = max(summary.timeline("mlc_writebacks"), key=lambda tv: tv[1])[0]
    return None if first_llc is None else peak_mlc - first_llc


def _quietest_burst_mlc_wb(result: SweepResult) -> int:
    """MLC writebacks in the first 3 ms of the quietest burst period."""
    cell = result.cell(policy="ddio")
    period = cell.experiment.burst_period
    return min(
        cell.summary.count_between("mlc_writebacks", b * period,
                                   b * period + units.milliseconds(3))
        for b in range(cell.experiment.num_bursts)
    )


def _steady_mlc_bins(result: SweepResult) -> int:
    """100 us bins past 800 us with DDIO MLC writebacks, beyond half of them."""
    timeline = result.cell(policy="ddio").summary.timeline("mlc_writebacks", bin_us=100.0)
    warm = [v for t, v in timeline if t > 800.0]
    return sum(1 for v in warm if v > 0) - len(warm) // 2


def _best_drop_gain(result: SweepResult) -> int:
    """The most drops IDIO saves over DDIO above the lowest offered rate."""
    drops = {(r["policy"], r["rate_gbps"]): r["drops"] for r in result.rows()}
    rates = sorted({rate for _, rate in drops})[1:]
    return max(drops["ddio", rate] - drops["idio", rate] for rate in rates)


# ---------------------------------------------------------------------------
# The table (``repro validate`` prints its claims in this order)
# ---------------------------------------------------------------------------

def _solo(rate: float) -> Row:
    return Row(scenario="solo", policy="idio", rate_gbps=rate)


def _fig4(ring: int, one_way: bool = False, load: Any = "high") -> Row:
    return Row(load=load, ring=ring, one_way=one_way)


def _fig9(policy: str, rate: float) -> Row:
    return Row(policy=policy, rate_gbps=rate)


CLAIMS: List[Claim] = [
    # Fig. 4 — MLC and DRAM leaks under DDIO.
    claim("fig4.ring64-mlc-wb", "ring 64: low MLC WB rate at high load", "low MLC WB ratio",
          _fig4(64).mlc_wb_per_rx_line < 0.1),
    claim("fig4.ring64-inval", "ring 64: high MLC invalidation rate at high load",
          "high invalidation ratio", _fig4(64).mlc_inval_per_rx_line > 0.5),
    claim("fig4.ring1024-mlc-wb", "ring 1024: substantial MLC WB rate at medium and high load",
          f"~{PAPER_FIG4_MLC_WB_RATIO_RING1024}x RX",
          _fig4(1024, load=("med", "high")).mlc_wb_per_rx_line > 0.4, deviation=True),
    *(c for ring, factor, paper in ((1024, 3.0, "12.3x"), (2048, 1.3, "1.7x")) for c in (
        claim(f"fig4.1way-dram-wr-{ring}", f"_1way raises high-load DRAM write BW @ring {ring}",
              paper, _fig4(ring, True).dram_write_gbps > factor * _fig4(ring).dram_write_gbps),
        claim(f"fig4.1way-dram-wr-floor-{ring}", f"_1way DRAM write BW above 1 Gbps @ring {ring}",
              "much higher DRAM write BW", _fig4(ring, True).dram_write_gbps > 1.0),
    )),
    # Fig. 5 — writeback phases over three DDIO bursts.
    claim("fig5.mlc-wb", "DDIO bursts produce MLC WBs", "execution-phase MLC WBs",
          Row(stream="mlc_writebacks").total > 0),
    claim("fig5.llc-wb", "DDIO bursts produce LLC WBs", "DMA-phase LLC WBs",
          Row(stream="llc_writebacks").total > 0),
    claim("fig5.llc-leads", "LLC WBs start before the MLC WB peak",
          "DMA phase, then execution phase", Measure(_llc_lead_us) >= 0),
    claim("fig5.every-burst", "every burst period shows MLC WBs", "WBs in every burst",
          Measure(_quietest_burst_mlc_wb) > 0),
    # Fig. 9 — per-policy writebacks.
    *(c for rate in (100.0, 25.0) for c in (
        claim(f"fig9.invalidate-mlc-{rate:g}", f"self-invalidation removes MLC WBs @{rate:g}G",
              "~0 MLC WBs",
              _fig9("invalidate", rate).mlc_wb < 0.1 * _fig9("ddio", rate).mlc_wb, suites=BOTH),
        claim(f"fig9.idio-llc-{rate:g}", f"IDIO cuts LLC WBs @{rate:g}G", "large reduction",
              _fig9("idio", rate).llc_wb < _fig9("ddio", rate).llc_wb, suites=BOTH),
    )),
    claim("fig9.idio-regulates-static-100",
          "dynamic IDIO regulates Static's MLC WB overshoot @100G", "IDIO <= Static",
          _fig9("idio", 100.0).mlc_wb <= _fig9("static", 100.0).mlc_wb, suites=BOTH),
    claim("fig9.prefetch-burst", "prefetching shortens the burst at every rate", "shorter burst",
          Row(policy="prefetch").burst_time_us < Row(policy="ddio").burst_time_us),
    claim("fig9.static-llc", "Static cuts LLC WBs at every rate", "large reduction",
          Row(policy="static").llc_wb < Row(policy="ddio").llc_wb),
    claim("fig9.idio-burst", "IDIO shortens the burst at every rate", "shorter burst",
          Row(policy="idio").burst_time_us < Row(policy="ddio").burst_time_us),
    claim("fig9.static-matches-idio-25", "Static and IDIO MLC WBs match @25G", "no difference",
          Measure(_static_idio_gap) <= 1.0),
    # Fig. 10 — transactions and burst time normalized to DDIO.
    claim("fig10.exe-100", "burst time improves @100G",
          _ratio(PAPER_FIG10_EXE_IMPROVEMENT[100.0]), _solo(100.0).exe_time < 0.95, suites=BOTH),
    claim("fig10.exe-25", "burst time improves @25G",
          _ratio(PAPER_FIG10_EXE_IMPROVEMENT[25.0]), _solo(25.0).exe_time < 0.90, suites=BOTH),
    claim("fig10.exe-10", "burst time NOT improved @10G (no queueing)", "~1.0x",
          _solo(10.0).exe_time > 0.97, suites=BOTH),
    claim("fig10.dram-wr-25", "DRAM writes nearly eliminated @25G", "~0x",
          _solo(25.0).dram_writes < 0.2, suites=BOTH),
    claim("fig10.corun-exe-25", "co-run burst time improves @25G",
          _ratio(PAPER_FIG10_CORUN_EXE_IMPROVEMENT[25.0]),
          Row(scenario="corun", policy="idio", rate_gbps=25.0).exe_time < 0.92, suites=BOTH),
    claim("fig10.corun-antagonist-25", "antagonist CPI improves in co-run @25G",
          _ratio(PAPER_FIG10_CORUN_ANTAGONIST_IMPROVEMENT[25.0]),
          Row(scenario="corun", policy="idio", rate_gbps=25.0).antagonist_access_ratio < 1.0,
          suites=VALIDATE),
    claim("fig10.solo-mlc-wb", "solo IDIO MLC WBs at or below DDIO at every rate",
          "reduced at every rate", Row(scenario="solo", policy="idio").mlc_writebacks <= 1.0),
    claim("fig10.solo-llc-wb", "solo IDIO LLC WBs at or below DDIO at every rate",
          "reduced at every rate", Row(scenario="solo", policy="idio").llc_writebacks <= 1.0),
    claim("fig10.solo-dram-wr", "solo IDIO DRAM writes at or below DDIO at every rate",
          "reduced at every rate", Row(scenario="solo", policy="idio").dram_writes <= 1.0),
    claim("fig10.solo-exe", "solo IDIO burst time within 2% of DDIO or better at every rate",
          "never slower", Row(scenario="solo", policy="idio").exe_time <= 1.02),
    claim("fig10.corun-exe-100", "co-run burst time improves @100G",
          _ratio(PAPER_FIG10_CORUN_EXE_IMPROVEMENT[100.0]),
          Row(scenario="corun", policy="idio", rate_gbps=100.0).exe_time < 0.97),
    claim("fig10.corun-antagonist", "IDIO does not slow the co-run antagonist",
          " / ".join(_ratio(pct) for pct in PAPER_FIG10_CORUN_ANTAGONIST_IMPROVEMENT.values()),
          Row(scenario="corun", policy="idio").antagonist_access_ratio <= 1.02),
    # Fig. 11 — L2Fwd and the class-1 direct-DRAM variant.
    claim("fig11.idio-llc", "IDIO cuts L2Fwd LLC WBs via MLC admission", "large reduction",
          Row(config="idio").llc_wb < Row(config="ddio").llc_wb, suites=VALIDATE),
    claim("fig11.payload-direct-dram", "class-1 payload goes directly to DRAM",
          "DRAM wr ~= RX payload BW",
          Row(config="idio-payload-drop").direct_dram_wr == _payload_lines,
          suites=BOTH, show="{0} of {0.bound} lines"),
    claim("fig11.ddio-mlc-quiet", "DDIO L2Fwd moves almost nothing through the MLC",
          "~no MLC activity", Row(config="ddio").mlc_wb <= 3 * Row(config="ddio").tx_packets),
    claim("fig11.ddio-llc", "DDIO L2Fwd builds up LLC WBs", "rising LLC WBs",
          Row(config="ddio").llc_wb > 0),
    claim("fig11.idio-llc-cut", "IDIO cuts L2Fwd LLC WBs by over 40%", "far fewer LLC WBs",
          Row(config="idio").llc_wb < 0.6 * Row(config="ddio").llc_wb),
    claim("fig11.forward-all", "DDIO and IDIO forward every packet", "all forwarded",
          Row(config=("ddio", "idio")).tx_packets == 2048),
    claim("fig11.payload-llc", "direct-DRAM payload leaves ~no LLC WBs", "LLC WBs vanish",
          Row(config="idio-payload-drop").llc_wb < 100),
    # Fig. 12 — p99 latency.
    claim("fig12.p99-cut-100", "p99 improves @100G",
          f"{PAPER_FIG12_P99_REDUCTION_SOLO[100.0]:.1f}%",
          Row(scenario="solo", rate_gbps=100.0).p99_reduction_pct > 0,
          suites=VALIDATE, show="{0:.1f}%"),
    claim("fig12.p99-cut-25", "p99 improves @25G",
          f"{PAPER_FIG12_P99_REDUCTION_SOLO[25.0]:.1f}%",
          Row(scenario="solo", rate_gbps=25.0).p99_reduction_pct > 15,
          suites=BOTH, show="{0:.1f}%"),
    claim("fig12.crossover", "biggest p99 cut at 25G (the crossover)", "25G > 100G",
          Row(scenario="solo", rate_gbps=25.0).p99_reduction_pct
          >= Row(scenario="solo", rate_gbps=100.0).p99_reduction_pct,
          suites=BOTH, show="{0:.1f}% vs {0.ref:.1f}%"),
    claim("fig12.crossover-10", "the 25G p99 cut beats the 10G cut", "25G > 10G",
          Row(scenario="solo", rate_gbps=25.0).p99_reduction_pct
          >= Row(scenario="solo", rate_gbps=10.0).p99_reduction_pct),
    claim("fig12.p99-never-worse", "IDIO p99 within 2% of DDIO or better everywhere",
          "reductions at every rate", Row().idio_p99_us <= 1.02 * Row().ddio_p99_us),
    claim("fig12.p50-queueing", "p50 improves where packets queue (100/25G)", "p50 improves",
          Row(scenario="solo", rate_gbps=(100.0, 25.0)).idio_p50_us
          < Row(scenario="solo", rate_gbps=(100.0, 25.0)).ddio_p50_us),
    # Fig. 13 — steady traffic.
    claim("fig13.idio-mlc", "steady-load MLC WBs removed by IDIO", ">90% reduction",
          Row(policy="idio").mlc_wb < 0.1 * Row(policy="ddio").mlc_wb, suites=BOTH),
    claim("fig13.ddio-mlc", "DDIO has MLC WBs at steady load", "consistent MLC WBs",
          Row(policy="ddio").mlc_wb > 0),
    claim("fig13.no-drops", "no drops below the per-core saturation rate", "no drops",
          Row().rx_drops == 0),
    claim("fig13.ddio-mlc-spread", "DDIO MLC WBs span at least half the steady bins",
          "consistent MLC WBs", Measure(_steady_mlc_bins) >= 0),
    # Fig. 14 — mlcTHR sensitivity.
    claim("fig14.insensitive", "insensitive to mlcTHR (10..100 MTPS)", "consistent improvement",
          Row().exe_time < 1.0, Row().exe_time.spread < 0.15,
          suites=BOTH, show="worst exe {0:.3g}, spread {1:.3g}"),
    claim("fig14.thresholds", "all five mlcTHR points swept", "10..100 MTPS",
          Row().mlc_thr_mtps.count == 5),
    claim("fig14.llc-wb", "every mlcTHR cuts LLC WBs", "consistent improvement",
          Row().llc_writebacks < 1.0),
    claim("fig14.dram-wr", "every mlcTHR cuts DRAM writes", "consistent improvement",
          Row().dram_writes < 1.0),
    claim("fig14.mlc-wb", "every mlcTHR cuts MLC WBs", "consistent improvement",
          Row().mlc_writebacks < 1.0),
    # Extensions.
    claim("ext-baselines.iat-mlc-100", "IAT (way resizing) leaves MLC WBs untouched (S1)",
          "no MLC reduction",
          _fig9("iat", 100.0).mlc_wb >= 0.9 * _fig9("ddio", 100.0).mlc_wb,
          suites=BOTH, figure="ext"),
    claim("ext-baselines.regulated-mlc-100", "regulated prefetcher never floods the MLC",
          "0 MLC WBs at 100G", _fig9("idio-regulated", 100.0).mlc_wb == 0,
          suites=BOTH, figure="ext"),
    claim("ext-baselines.iat-mlc-25", "IAT leaves MLC WBs untouched @25G", "no MLC reduction",
          _fig9("iat", 25.0).mlc_wb >= 0.9 * _fig9("ddio", 25.0).mlc_wb),
    claim("ext-baselines.regulated-mlc-25", "regulated prefetcher never floods the MLC @25G",
          "0 MLC WBs", _fig9("idio-regulated", 25.0).mlc_wb == 0),
    claim("ext-baselines.iat-llc", "IAT trims the DMA leak at every rate", "fewer LLC WBs",
          Row(policy="iat").llc_wb <= Row(policy="ddio").llc_wb),
    claim("ext-baselines.idio-mlc", "IDIO beats IAT on MLC WBs at every rate", "IDIO dominates",
          Row(policy="idio").mlc_wb < Row(policy="iat").mlc_wb),
    claim("ext-baselines.idio-burst", "IDIO beats IAT on burst time at every rate",
          "IDIO dominates", Row(policy="idio").burst_time_us < Row(policy="iat").burst_time_us),
    claim("ext-baselines.regulated-burst", "regulated prefetcher is as fast as IDIO",
          "at least as fast",
          Row(policy="idio-regulated").burst_time_us <= 1.02 * Row(policy="idio").burst_time_us),
    claim("ext-cachedirector.steers", "CacheDirector steers headers", "headers slice-pinned",
          Row(policy="cachedirector").headers_steered > 0),
    claim("ext-cachedirector.p50", "CacheDirector does not hurt p50", "lower header latency",
          Row(policy="cachedirector").p50_us <= 1.01 * Row(policy="ddio").p50_us),
    claim("ext-cachedirector.llc-untouched", "CacheDirector leaves LLC WBs in place",
          "writeback pathology stays",
          Row(policy="cachedirector").llc_wb >= 0.9 * Row(policy="ddio").llc_wb),
    claim("ext-cachedirector.idio-llc", "IDIO cuts LLC WBs on the same NUCA LLC",
          "finer-grained control wins",
          Row(policy="idio").llc_wb < 0.6 * Row(policy="cachedirector").llc_wb),
    claim("ext-mixed.idio-direct-dram", "only the class-1 payload bypasses the caches",
          "class-1 payload to DRAM", Row(policy="idio").direct_dram_wr == 512 * 15),
    claim("ext-mixed.ddio-direct-dram", "DDIO writes no payload directly to DRAM",
          "no direct DRAM writes", Row(policy="ddio").direct_dram_wr == 0),
    claim("ext-mixed.idio-llc", "the shared LLC is cleaner under IDIO", "fewer LLC WBs",
          Row(policy="idio").llc_wb < Row(policy="ddio").llc_wb),
    claim("ext-mixed.touchdrop-latency", "TouchDrop average latency does not regress",
          "no regression",
          Row(policy="idio").touchdrop_avg_us <= 1.02 * Row(policy="ddio").touchdrop_avg_us),
    claim("ext-mixed.firewall-latency", "firewall average latency does not regress",
          "no regression",
          Row(policy="idio").firewall_avg_us <= 1.02 * Row(policy="ddio").firewall_avg_us),
    claim("ext-recycling.copy-accesses", "copy mode ~doubles core memory accesses",
          "2x core-side traffic",
          Row(policy="ddio", mode="copy").core_accesses
          > 1.7 * Row(policy="ddio", mode="run_to_completion").core_accesses),
    claim("ext-recycling.copy-burst", "copy mode lengthens the burst", "longer burst",
          Row(policy="ddio", mode="copy").burst_time_us
          > Row(policy="ddio", mode="run_to_completion").burst_time_us),
    claim("ext-recycling.idio-llc", "IDIO cuts LLC WBs in every recycling mode",
          "M1 applies to all three", Row(policy="idio").llc_wb <= Row(policy="ddio").llc_wb),
    claim("ext-recycling.idio-mlc", "IDIO cuts MLC WBs in every recycling mode",
          "M1 applies to all three", Row(policy="idio").mlc_wb <= Row(policy="ddio").mlc_wb),
    claim("ext-saturation.ddio-10", "no DDIO drops at 10 Gbps per core", "no drops",
          Row(policy="ddio", rate_gbps=10.0).drops == 0),
    claim("ext-saturation.ddio-20", "DDIO drops at 20 Gbps per core", "drops > ~12 Gbps",
          Row(policy="ddio", rate_gbps=20.0).drops > 0),
    claim("ext-saturation.idio-drop-pct", "IDIO drops no more than DDIO at any rate",
          "higher lossless rate",
          Row(policy="idio").drop_pct <= Row(policy="ddio").drop_pct + 0.1),
    claim("ext-saturation.idio-fewer-drops", "IDIO drops strictly less somewhere",
          "higher lossless rate", Measure(_best_drop_gain) > 0),
    claim("ext-burstthr.detected", "every rxBurstTHR below the burst rate detects it",
          "bursts detected", Row().bursts_detected > 0),
    claim("ext-burstthr.llc-wb", "IDIO cuts LLC WBs at every rxBurstTHR", "robust",
          Row().llc_writebacks < 1.0),
    claim("ext-burstthr.exe", "IDIO shortens the burst at every rxBurstTHR", "robust",
          Row().exe_time < 1.0),
    claim("ext-ring.ddio-grows", "DDIO LLC WBs grow with the ring", "more leak",
          Row(ring=1024, policy="ddio").llc_wb > Row(ring=256, policy="ddio").llc_wb),
    claim("ext-ring.idio-llc", "IDIO LLC WBs at or below DDIO at every ring", "benefit grows",
          Row(policy="idio").llc_wb <= Row(policy="ddio").llc_wb),
    claim("ext-ring.idio-burst", "IDIO burst time at or below DDIO at every ring",
          "benefit grows", Row(policy="idio").burst_time_us <= Row(policy="ddio").burst_time_us),
    claim("ext-inclusive.mlc-wb", "inclusion halves MLC->LLC writebacks", "no DMA bloating",
          Row(hierarchy="inclusive").mlc_wb < 0.5 * Row(hierarchy="non-inclusive").mlc_wb),
    claim("ext-inclusive.back-invals", "the inclusive LLC back-invalidates MLC lines",
          "back-invalidations", Row(hierarchy="inclusive").back_invalidations > 0),
    claim("ext-inclusive.no-back-invals", "the non-inclusive LLC never back-invalidates",
          "none", Row(hierarchy="non-inclusive").back_invalidations == 0),
    claim("ext-traffic.same-rx", "both policies receive the same packets", "same packets",
          Row(policy="idio").rx == Row(policy="ddio").rx),
    claim("ext-traffic.mlc-wb", "IDIO MLC WBs at or below DDIO under every traffic",
          "benefits survive", Row(policy="idio").mlc_wb <= Row(policy="ddio").mlc_wb),
    claim("ext-traffic.llc-wb", "IDIO LLC WBs at or below DDIO under every traffic",
          "benefits survive", Row(policy="idio").llc_wb <= Row(policy="ddio").llc_wb),
    claim("ext-traffic.p99", "IDIO p99 within 5% of DDIO under every traffic",
          "no tail regression", Row(policy="idio").p99_us <= 1.05 * Row(policy="ddio").p99_us),
    claim("ext-traffic.poisson-tail", "Poisson arrivals lift the DDIO tail over steady",
          "queueing variance",
          Row(traffic="poisson", policy="ddio").p99_us
          >= Row(traffic="steady", policy="ddio").p99_us),
]


def suite(name: str) -> List[Claim]:
    """The claims a suite grades (``"validate"`` or ``"paper"``), in table order."""
    return [c for c in CLAIMS if name in c.suites]


def validate(quick: bool = False, jobs: int = 1) -> List[Verdict]:
    """Grade the ``validate`` suite, running each figure once: 512-entry
    rings when ``quick`` (roughly 3x faster), else 1024.  One warm pool
    serves every figure's sweep when ``jobs > 1`` and is torn down on exit."""
    ring_size = 512 if quick else 1024
    results: Dict[str, SweepResult] = {}
    verdicts = []
    with pool_session(jobs if jobs and jobs > 1 else 1):
        for c in suite("validate"):
            if c.run not in results:
                results[c.run] = FIGURES[c.run](**VALIDATE_RUNS[c.run], ring_size=ring_size,
                                                jobs=jobs)
            verdicts.append(c.evaluate(results[c.run]))
    return verdicts


def scorecard(verdicts: Sequence[Verdict]) -> str:
    """The verdicts as the reproduction scorecard table."""
    table = format_table(
        ["figure", "status", "claim", "paper", "measured"],
        [[v.claim.figure or v.claim.run, "PASS" if v.passed else "FAIL", v.claim.label,
          v.claim.paper + (" (deviation)" if v.claim.deviation else ""), v.measured]
         for v in verdicts],
        title="IDIO reproduction scorecard",
    )
    passed = sum(v.passed for v in verdicts)
    return f"{table}\n{passed}/{len(verdicts)} claims reproduced"
