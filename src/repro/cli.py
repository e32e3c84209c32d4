"""Command-line interface: run experiments, figures, and comparisons.

Installed as the ``idio-repro`` console script::

    idio-repro list                      # policies, apps, figures
    idio-repro run --policy idio --app touchdrop --rate 25
    idio-repro compare --policies ddio,idio --rate 100 --ring 1024
    idio-repro figure fig9               # reproduce one paper figure
    idio-repro figure fig10 --out fig10.txt
    idio-repro run --policy ddio --csv trace.csv   # export timelines
    idio-repro trace --out idio-trace.json         # Chrome-trace export
    idio-repro check --quick                       # sanitizer + determinism
    idio-repro faults --quick                      # degradation matrix
    idio-repro tenants --policies ddio,idio,ioca   # isolation matrix
    idio-repro compare --cache-dir .repro-cache    # memoize the sweep
    idio-repro cache stats                         # result-cache census

The flag vocabulary is shared across subcommands via argparse parent
parsers: every command that runs experiments accepts the same
``--workload``/``--app``, ``--policy``, ``--jobs``, ``--seed``, and
``--out`` spellings with the same semantics, and the multi-tenant
commands (``tenants``, ``faults``) share the scenario vocabulary
``--tenants``/``--tenant-mix``/``--intensity``.  Caching is opt-in:
``--cache-dir`` (or the ``REPRO_CACHE_DIR`` environment variable)
installs a result cache for the invocation, and ``--no-cache`` disables
it even when the variable is set.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Any, Callable, Dict, List, NoReturn, Optional, Sequence

from .core import policies
from .faults import FAULT_LAYERS
from .harness import claims
from .harness.experiment import Experiment, run_experiment
from .harness.matrix import Matrix, SweepResult
from .harness.runner import run_experiments, run_sweep, shutdown_pool
from .harness.report import format_table, timeline_block
from .harness.server import APP_FACTORIES, ServerConfig
from .harness.traces import export_csv, to_csv_string
from .sim import units

#: Figure/extension entry points exposed by ``idio-repro figure``.
FIGURE_COMMANDS = claims.FIGURES

#: Reduced-scale keyword arguments for ``figure --quick`` smoke runs.
FIGURE_QUICK_ARGS: Dict[str, Dict[str, object]] = {
    "fig4": {
        "ring_sizes": (64, 1024),
        "duration_us": 500.0,
        "max_duration_us": 4000.0,
        "include_1way": False,
    },
    "fig5": {"ring_size": 256, "num_bursts": 2, "burst_period_ms": 1.0},
    "fig9": {"ring_size": 256},
    "fig10": {"ring_size": 256, "include_static": False, "corun_rates": (25.0,)},
    "fig11": {"ring_size": 256},
    "fig12": {"ring_size": 256, "include_corun": False},
    "fig13": {"ring_size": 256, "duration_us": 500.0},
    "fig14": {"thresholds_mtps": (10.0, 50.0, 100.0), "ring_size": 256},
    "ext-baselines": {"ring_size": 256},
    "ext-recycling": {"ring_size": 128},
    "ext-burstthr": {"thresholds_gbps": (10.0,), "ring_size": 256},
    "ext-ring": {"ring_sizes": (128, 256)},
    "ext-inclusive": {"ring_size": 256},
    "ext-saturation": {"rates_gbps": (10.0, 16.0), "duration_us": 1000.0},
    "ext-cachedirector": {"ring_size": 256},
    "ext-mixed": {"ring_size": 128},
    "ext-traffic": {"duration_us": 500.0},
}


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = _Parser(
        prog="idio-repro",
        description="IDIO (MICRO 2022) reproduction: experiments and figure harness",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list policies, applications, and figures")

    run_p = sub.add_parser(
        "run",
        help="run one experiment",
        parents=[_workload_parent(), _policy_parent("ddio")],
    )
    run_p.add_argument("--csv", help="export 10us timelines to CSV ('-' = stdout)")
    run_p.add_argument(
        "--timelines", action="store_true", help="print sparkline timelines"
    )

    cmp_p = sub.add_parser(
        "compare",
        help="run several policies on one workload",
        parents=[_workload_parent(), _jobs_parent(), _cache_parent()],
    )
    cmp_p.add_argument(
        "--policies",
        type=_policy_names,
        default="ddio,idio",
        help="comma-separated policy names (default: ddio,idio)",
    )

    fig_p = sub.add_parser(
        "figure",
        help="reproduce a paper figure / extension",
        parents=[_jobs_parent(), _cache_parent()],
    )
    fig_p.add_argument("name", choices=sorted(FIGURE_COMMANDS), help="figure id")
    fig_p.add_argument("--out", help="also write the report to this file")
    fig_p.add_argument(
        "--quick", action="store_true", help="reduced-scale smoke run"
    )

    val_p = sub.add_parser(
        "validate",
        help="run the full reproduction scorecard (paper claims)",
        parents=[_jobs_parent(), _cache_parent()],
    )
    val_p.add_argument(
        "--quick", action="store_true", help="reduced scale (~3x faster)"
    )

    faults_p = sub.add_parser(
        "faults",
        help="run the fault-injection degradation matrix "
        "(policy x fault layer x intensity)",
        parents=[
            _workload_parent(),
            _jobs_parent(),
            _cache_parent(),
            _scenario_parent(),
            _sweep_parent(),
        ],
    )
    faults_p.add_argument(
        "--policies",
        type=_policy_names,
        default="ddio,idio",
        help="comma-separated policy names (default: %(default)s)",
    )
    faults_p.add_argument(
        "--layers",
        type=_comma_list(_fault_layer),
        default="nic,pcie,mem,cpu",
        help="comma-separated fault layers (from nic,pcie,mem,cpu,all; "
        "default: %(default)s)",
    )
    faults_p.add_argument(
        "--intensities",
        type=_non_negative_floats,
        default="0,0.5,1",
        help="comma-separated probability scale factors; 0 is the "
        "fault-free baseline row (default: %(default)s)",
    )
    faults_p.add_argument(
        "--quick", action="store_true", help="reduced-scale smoke matrix"
    )
    faults_p.add_argument(
        "--timeout-s",
        type=_positive_float,
        default=None,
        metavar="S",
        help="per-experiment wall-clock budget (pooled runs enforce it)",
    )
    faults_p.add_argument(
        "--retries",
        type=_non_negative_int,
        default=1,
        metavar="N",
        help="extra attempts for crashed experiments (default: %(default)s)",
    )

    check_p = sub.add_parser(
        "check",
        help="run the correctness gate: checked-mode (invariant sanitizer) "
        "runs, a dual-run determinism digest comparison, and a checked-vs-bare "
        "digest comparison",
    )
    check_p.add_argument(
        "--quick", action="store_true", help="reduced-scale runs (for CI)"
    )
    check_p.add_argument(
        "--policies",
        type=_policy_names,
        default="ddio,idio",
        help="comma-separated policies to run in checked mode "
        "(default: %(default)s)",
    )
    check_p.add_argument(
        "--barrier-interval",
        type=_positive_int,
        default=1024,
        metavar="N",
        help="transactions between structural-barrier sweeps "
        "(default: %(default)s)",
    )

    tenants_p = sub.add_parser(
        "tenants",
        help="run the multi-tenant isolation matrix "
        "(policy x tenant mix x aggressor intensity)",
        parents=[_jobs_parent(), _cache_parent(), _scenario_parent(), _sweep_parent()],
    )
    tenants_p.set_defaults(tenants=2)
    tenants_p.add_argument(
        "--policies",
        type=_policy_names,
        default="ddio,idio,ioca",
        help="comma-separated policy names (default: %(default)s)",
    )
    tenants_p.add_argument(
        "--intensities",
        type=_non_negative_floats,
        default="0.25,1,2",
        help="comma-separated aggressor intensities; the lowest is each "
        "policy's isolation baseline (default: %(default)s)",
    )
    tenants_p.add_argument(
        "--seed",
        type=int,
        default=1234,
        help="tenant-set sweep seed (default: %(default)s)",
    )
    tenants_p.add_argument(
        "--duration-us",
        type=_positive_float,
        default=200.0,
        help="traffic duration per cell (default: %(default)s)",
    )
    tenants_p.add_argument(
        "--trace-out",
        metavar="PATH",
        help="export per-tenant degradation curves as a Chrome-trace JSON",
    )

    cache_p = sub.add_parser(
        "cache",
        help="inspect and maintain the result cache (stats / verify / gc)",
    )
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser(
        "stats",
        help="entry count, bytes, versions, traffic",
        parents=[_cache_parent()],
    )
    verify_p = cache_sub.add_parser(
        "verify",
        help="validate every entry and re-run a sampled subset; evict "
        "corrupt or diverging entries",
        parents=[_cache_parent()],
    )
    verify_p.add_argument(
        "--sample",
        type=_positive_int,
        default=None,
        metavar="N",
        help="re-run at most N entries (default: all)",
    )
    verify_p.add_argument(
        "--seed", type=int, default=0, help="sampling seed (default: %(default)s)"
    )
    verify_p.add_argument(
        "--checked",
        action="store_true",
        help="re-run the sample with the invariant sanitizer attached",
    )
    verify_p.add_argument(
        "--no-evict",
        action="store_true",
        help="report corrupt/mismatched entries without deleting them",
    )
    gc_p = cache_sub.add_parser(
        "gc",
        help="evict foreign-version, stale, and over-budget entries",
        parents=[_cache_parent()],
    )
    gc_p.add_argument(
        "--max-bytes",
        type=_positive_int,
        default=None,
        metavar="N",
        help="evict oldest entries until the cache fits in N bytes",
    )
    gc_p.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        metavar="D",
        help="evict entries older than D days",
    )

    trace_p = sub.add_parser(
        "trace",
        help="run the reference burst experiment with per-hop tracing and "
        "export a Chrome-trace (Perfetto) JSON",
    )
    trace_p.add_argument(
        "--out", default="idio-trace.json", help="output path (default: %(default)s)"
    )
    trace_p.add_argument(
        "--policy", type=_policy_name, default="idio", help="placement policy name"
    )
    trace_p.add_argument(
        "--rate", type=_positive_float, default=100.0, help="burst rate in Gbps"
    )
    trace_p.add_argument("--ring", type=_positive_int, default=1024, help="RX ring size")
    trace_p.add_argument(
        "--max-events",
        type=_positive_int,
        default=2_000_000,
        metavar="N",
        help="recorder event cap (default: %(default)s)",
    )

    return parser


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``prog: error: ...`` line, exit status 2."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


def _number(convert: Callable[[str], Any], what: str, ok: Callable[[Any], bool]):
    """argparse type: ``convert(text)``, which must satisfy ``ok``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {value}")
        return value

    return parse


_positive_int = _number(int, "a positive integer", lambda v: v > 0)
_non_negative_int = _number(int, "a non-negative integer", lambda v: v >= 0)
_positive_float = _number(float, "a positive number", lambda v: v > 0)
_non_negative_float = _number(float, "a non-negative number", lambda v: v >= 0)


def _one_of(what: str, names: Callable[[], Sequence[str]]) -> Callable[[str], str]:
    """argparse type: one of ``names()``."""

    def parse(text: str) -> str:
        if text not in names():
            raise argparse.ArgumentTypeError(
                f"unknown {what} {text!r}; choose from {sorted(names())}"
            )
        return text

    return parse


_policy_name = _one_of("policy", policies.extended_policies)
_fault_layer = _one_of("fault layer", lambda: FAULT_LAYERS + ("all",))


def _comma_list(item: Callable[[str], Any]) -> Callable[[str], List[Any]]:
    """argparse type: a non-empty comma-separated list of ``item`` values."""

    def parse(text: str) -> List[Any]:
        values = [item(part.strip()) for part in text.split(",") if part.strip()]
        if not values:
            raise argparse.ArgumentTypeError("expected a comma-separated list, got none")
        return values

    return parse


_policy_names = _comma_list(_policy_name)
_non_negative_floats = _comma_list(_non_negative_float)


def _jobs_parent() -> argparse.ArgumentParser:
    """Shared ``--jobs`` vocabulary (parent parser, no help of its own)."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes for the experiment sweep (1 = serial)",
    )
    return p


def _policy_parent(default: str) -> argparse.ArgumentParser:
    """Shared ``--policy`` vocabulary with a per-subcommand default."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--policy", type=_policy_name, default=default, help="placement policy name"
    )
    return p


def _cache_parent() -> argparse.ArgumentParser:
    """Shared result-cache vocabulary (``docs/caching.md``).

    ``--cache-dir`` (or ``$REPRO_CACHE_DIR``) turns caching on for the
    invocation; ``--no-cache`` forces every experiment to recompute even
    when the environment variable is set.  ``harness.*`` fault plans
    force-miss regardless (the cache refuses to memoize them).
    """
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="result-cache directory (default: $REPRO_CACHE_DIR if set, "
        "else caching is off)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache for this invocation",
    )
    return p


def _scenario_parent() -> argparse.ArgumentParser:
    """Shared multi-tenant scenario vocabulary (``tenants``/``faults``).

    ``--tenants 0`` (the default everywhere but the ``tenants``
    subcommand) means single-tenant: no :class:`TenantSet` is attached
    and the flags are inert.  With ``--tenants N`` the named mix from
    :data:`repro.tenants.scenarios.TENANT_MIXES` rides on every server
    config the subcommand builds, at one aggressor ``--intensity``.
    """
    from .tenants.scenarios import TENANT_MIXES

    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--tenants",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help="co-located tenants per server (0 = single-tenant)",
    )
    p.add_argument(
        "--tenant-mix",
        choices=TENANT_MIXES,
        default="noisy-neighbor",
        help="scenario pack shaping the tenant set (default: %(default)s)",
    )
    p.add_argument(
        "--intensity",
        type=_non_negative_float,
        default=1.0,
        help="aggressor-load scale for the tenant mix (default: %(default)s)",
    )
    return p


def _sweep_parent() -> argparse.ArgumentParser:
    """Shared matrix-command flags (``faults``/``tenants``)."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--checked",
        action="store_true",
        help="attach the invariant sanitizer to every cell's server",
    )
    p.add_argument(
        "--out",
        metavar="PATH",
        help="write the sweep JSON (faults: the failure manifest) to this file",
    )
    return p


def _scenario(args: argparse.Namespace, nf_cores: int) -> Dict[str, Any]:
    """The ``ServerConfig`` fields the scenario flags set: the requested
    :class:`TenantSet` (or ``None``) and the NF core count it needs."""
    if args.tenants <= 0:
        return {"tenants": None, "num_nf_cores": nf_cores}
    from .tenants.scenarios import tenant_mix

    tenants = tenant_mix(
        args.tenant_mix, tenants=args.tenants, intensity=args.intensity, seed=args.seed
    )
    return {"tenants": tenants, "num_nf_cores": tenants.total_nf_cores}


def _workload_parent() -> argparse.ArgumentParser:
    """Shared workload vocabulary: every experiment-running subcommand
    accepts the same flags with the same defaults.  ``--workload`` and
    ``--app`` are the same flag (``--app`` predates the unified
    vocabulary and is kept as an alias)."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--workload",
        "--app",
        dest="app",
        default="touchdrop",
        choices=sorted(APP_FACTORIES),
        help="network function to run on the NF cores",
    )
    p.add_argument("--ring", type=_positive_int, default=1024, help="RX ring size")
    p.add_argument("--packet-bytes", type=_positive_int, default=1514)
    p.add_argument(
        "--traffic", choices=("bursty", "steady"), default="bursty"
    )
    p.add_argument("--rate", type=_positive_float, default=25.0, help="Gbps (burst or per-NF)")
    p.add_argument("--bursts", type=int, default=1, help="number of bursts")
    p.add_argument(
        "--duration-us", type=_positive_float, default=1500.0, help="steady-traffic duration"
    )
    p.add_argument("--antagonist", action="store_true", help="add the LLCAntagonist")
    p.add_argument(
        "--recycle",
        choices=("run_to_completion", "copy", "reallocate"),
        default="run_to_completion",
    )
    p.add_argument("--nf-cores", type=_positive_int, default=2)
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for stochastic traffic and fault plans",
    )
    return p


def _experiment_from_args(args: argparse.Namespace, policy_name: str) -> Experiment:
    policy = policies.policy_by_name(policy_name)
    server = ServerConfig(
        policy=policy,
        app=args.app,
        ring_size=args.ring,
        packet_bytes=args.packet_bytes,
        antagonist=args.antagonist,
        recycle_mode=args.recycle,
        num_nf_cores=args.nf_cores,
    )
    return Experiment(
        name=f"cli-{policy_name}",
        server=server,
        traffic=args.traffic,
        traffic_seed=args.seed,
        burst_rate_gbps=args.rate,
        num_bursts=args.bursts,
        steady_rate_gbps_per_nf=args.rate,
        steady_duration=units.microseconds(args.duration_us),
    )


def _result_rows(results) -> List[List[object]]:
    rows = []
    for name, r in results.items():
        rows.append(
            [
                name,
                r.completed,
                r.rx_drops,
                r.window.mlc_writebacks,
                r.window.llc_writebacks,
                r.window.dram_writes,
                units.to_microseconds(r.burst_processing_time)
                if r.burst_processing_time
                else None,
                (r.p99_ns or 0) / 1000.0 if r.p99_ns else None,
            ]
        )
    return rows


def cmd_list(_: argparse.Namespace) -> int:
    print("Policies:")
    for name in sorted(policies.extended_policies()):
        print(f"  {name}")
    print("Applications:")
    for name in sorted(APP_FACTORIES):
        print(f"  {name}")
    print("Figures / extensions:")
    for name in sorted(FIGURE_COMMANDS):
        print(f"  {name}")
    return 0


def _eps_footer(summaries) -> str:
    """One-line wall-clock diagnostic: total simulated events and rate."""
    events = sum(s.events_fired for s in summaries)
    wall = sum(s.wall_seconds for s in summaries)
    eps = events / wall if wall > 0 else 0.0
    return f"[{events} events in {wall:.2f}s sim wall time, {eps:,.0f} events/sec]"


def cmd_run(args: argparse.Namespace) -> int:
    result = run_experiment(_experiment_from_args(args, args.policy))
    print(
        format_table(
            ["policy", "completed", "drops", "MLC WB", "LLC WB", "DRAM wr",
             "burst us", "p99 us"],
            _result_rows({args.policy: result}),
        )
    )
    if args.timelines:
        for stream in ("pcie_writes", "mlc_writebacks", "llc_writebacks"):
            print(timeline_block(stream, result.timeline(stream)))
    if args.csv:
        stats = result.server.stats
        start, end = result.window.start, result.window.end
        if args.csv == "-":
            sys.stdout.write(to_csv_string(stats, start, end))
        else:
            rows = export_csv(stats, args.csv, start, end)
            print(f"wrote {rows} rows to {args.csv}")
    print(_eps_footer([result.summary()]))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    summaries = run_experiments(
        [_experiment_from_args(args, name) for name in args.policies], jobs=args.jobs
    )
    results = dict(zip(args.policies, summaries))
    print(
        format_table(
            ["policy", "completed", "drops", "MLC WB", "LLC WB", "DRAM wr",
             "burst us", "p99 us"],
            _result_rows(results),
            title=f"{args.app} @ {args.rate:g} Gbps ({args.traffic}), ring {args.ring}",
        )
    )
    print(_eps_footer(summaries))
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    kwargs = FIGURE_QUICK_ARGS.get(args.name, {}) if args.quick else {}
    kwargs = {**kwargs, "jobs": args.jobs}
    result = FIGURE_COMMANDS[args.name](**kwargs)
    text = result.render()
    print(text)
    print(_eps_footer(result.summaries))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"(report written to {args.out})")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    verdicts = claims.validate(quick=args.quick, jobs=args.jobs)
    print(claims.scorecard(verdicts))
    return 0 if all(v.passed for v in verdicts) else 1


def cmd_check(args: argparse.Namespace) -> int:
    """Correctness gate: invariant-sanitizer runs + determinism digest.

    Two halves, mirroring the paper-reproduction requirements: (1) each
    requested policy runs end to end with ``checked_mode=True`` so the
    :class:`~repro.analysis.sanitizer.InvariantSanitizer` asserts the
    hierarchy invariants on every transaction and at barriers; (2) the
    reference workload runs twice and the two summary fingerprints must
    hash identically (the guarantee the process-pool runner relies on).
    The first policy's checked run must also hash like the bare runs:
    observing the hierarchy must not change the program.  Exits non-zero
    when any of these fails.
    """
    from .analysis import fingerprint_digest
    from .analysis.sanitizer import InvariantViolation
    from .harness.runner import run_experiment_summary

    rate = 25.0 if args.quick else 100.0
    ring = 256 if args.quick else 1024
    failures = 0

    # Stage 0: static analysis.  In a source checkout the simlint
    # whole-program engine (tools/simlint, SIM001-SIM017) lints the repro
    # package itself; installed contexts without the tools/ tree skip
    # with a notice rather than failing (the CI gate runs the full
    # battery through tools/analyze.py regardless).
    try:
        from tools.simlint import lint_project
        from tools.simlint.output import (
            DEFAULT_BASELINE,
            apply_baseline,
            load_baseline,
        )
    except ImportError:
        print("skip static: tools.simlint not importable (installed package)")
    else:
        from pathlib import Path

        package_dir = Path(__file__).resolve().parent
        try:
            lint_target = package_dir.relative_to(Path.cwd())
        except ValueError:
            lint_target = package_dir
        violations = lint_project([str(lint_target)])
        entries = load_baseline(DEFAULT_BASELINE) if DEFAULT_BASELINE.is_file() else []
        reported, suppressed, _stale = apply_baseline(violations, entries)
        if reported:
            for v in reported:
                print(f"FAIL static: {v.render()}")
            failures += 1
        else:
            note = f" ({len(suppressed)} baselined)" if suppressed else ""
            print(f"ok   static: simlint clean{note}")

    def make_experiment(policy_name: str, checked: bool) -> Experiment:
        server = ServerConfig(
            policy=policies.policy_by_name(policy_name),
            ring_size=ring,
            checked_mode=checked,
            checked_barrier_interval=args.barrier_interval,
        )
        return Experiment(
            name=f"check-{policy_name}",
            server=server,
            burst_rate_gbps=rate,
        )

    observed = None  # the first policy's checked-run digest
    for name in args.policies:
        try:
            result = run_experiment(make_experiment(name, checked=True))
            sanitizer = result.server.sanitizer
            assert sanitizer is not None
            sanitizer.check_all()
        except InvariantViolation as exc:
            print(f"FAIL sanitizer[{name}]: {exc}")
            failures += 1
            continue
        print(f"ok   sanitizer[{name}]: {sanitizer.summary_line()}")
        if name == args.policies[0]:
            observed = fingerprint_digest(result.summary())

    reference = make_experiment(args.policies[0], checked=False)
    digests = [
        fingerprint_digest(run_experiment_summary(reference)) for _ in range(2)
    ]
    if digests[0] != digests[1]:
        print(
            "FAIL determinism: repeated runs diverged "
            f"({digests[0][:16]}... != {digests[1][:16]}...)"
        )
        failures += 1
    else:
        print(f"ok   determinism: digest {digests[0][:16]}... (two runs)")
    # Observation neutrality: the sanitizer watched the same loops a bare
    # run executes, so the checked run must fingerprint like a bare one.
    if observed is not None:
        if observed != digests[0]:
            print(
                "FAIL observed: checked run diverged from bare "
                f"({observed[:16]}... != {digests[0][:16]}...)"
            )
            failures += 1
        else:
            print(f"ok   observed: checked run digest {observed[:16]}... equals bare")

    if failures:
        print(f"check: {failures} failure(s)")
        return 1
    print("check: all clean")
    return 0


def _finish_sweep(
    args: argparse.Namespace,
    result: SweepResult,
    noun: str,
    *notes: str,
    label: Optional[str] = None,
    out: Optional[Callable[[], Dict[str, Any]]] = None,
) -> int:
    """The epilogue every matrix command shares.

    Prints the result's table, the ``{label} fingerprint`` line (when
    the command folds one) and ``notes``; writes ``--trace-out`` lanes
    and the ``--out`` JSON (``out()``, default ``result.to_json()``);
    returns the sweep's exit code.
    """
    import json

    from .obs.trace import TraceRecorder

    print(result.render())
    if label is not None:
        print(f"{label} fingerprint: {result.fingerprint}")
    for note in notes:
        print(note)
    if getattr(args, "trace_out", None):
        events = TraceRecorder().add_lanes(result.lanes()).export(args.trace_out)
        print(f"wrote {events} trace events to {args.trace_out}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump((out or result.to_json)(), fh, indent=2)
            fh.write("\n")
        print(f"({noun} written to {args.out})")
    return result.exit_code


def cmd_faults(args: argparse.Namespace) -> int:
    """Run the degradation matrix: policy x fault layer x intensity.

    Each cell runs the shared workload under a
    :func:`~repro.faults.plan.standard_plan` for one fault layer with the
    per-event fault probabilities scaled by the cell's intensity
    (intensity 0 is the fault-free baseline, run once per policy).  The
    sweep goes through the resilient runner, so a crashed or wedged cell
    is reported in the failure manifest instead of killing the matrix,
    and the exit code reflects any losses.
    """
    from .faults import FaultPlan, standard_plan

    ring = 128 if args.quick else args.ring
    rate = min(args.rate, 50.0) if args.quick else args.rate
    scenario = _scenario(args, args.nf_cores)

    def cell(policy_name: str, layer: str, intensity: float) -> Experiment:
        if layer == "none":
            label, plan = "baseline", FaultPlan()
        else:
            label = f"{layer}-{intensity:g}"
            plan = standard_plan(layer, intensity, seed=args.seed)
        base = _experiment_from_args(args, policy_name)
        server = replace(
            base.server,
            ring_size=ring,
            checked_mode=args.checked,
            fault_plan=plan,
            **scenario,
        )
        return replace(
            base,
            name=f"faults-{policy_name}-{label}",
            server=server,
            burst_rate_gbps=rate,
            steady_rate_gbps_per_nf=rate,
        )

    def rows(result: SweepResult):
        for c in result.cells:
            s = c.summary
            yield {"policy": c.policy, "layer": c.layer, "intensity": f"{c.intensity:g}",
                   "status": c.status, **({} if s is None else {
                       "completed": s.completed,
                       "drops": s.rx_drops,
                       "p99_us": s.p99_ns / 1000.0 if s.p99_ns else None,
                       "faults": sum(s.fault_counts.values()),
                   })}

    baseline = [("none", 0.0)] if 0 in args.intensities else []
    faulted = [(l, i) for l in args.layers for i in args.intensities if i != 0]
    matrix = Matrix.build(
        ("policy", "layer", "intensity"),
        [(name, *cell_key) for name in args.policies for cell_key in baseline + faulted],
        cell,
        title=f"degradation matrix: {args.app} @ {rate:g} Gbps, ring {ring}",
        columns=("policy", "layer", "intensity", "status", "completed", "drops",
                 ("p99 us", "p99_us"), "faults"),
        rows=rows,
    )
    result = run_sweep(
        matrix, jobs=args.jobs, timeout_s=args.timeout_s, retries=args.retries
    )
    counts = ", ".join(f"{k}={v}" for k, v in sorted(result.counts().items()))
    return _finish_sweep(
        args,
        result,
        "failure manifest",
        f"[{len(result.records)} cells: {counts}]",
        out=result.failure_manifest,
    )


def cmd_tenants(args: argparse.Namespace) -> int:
    """Run the multi-tenant isolation matrix and print it.

    Cells (policy x aggressor intensity over one scenario pack) fan out
    through the resilient sweep runner, so they shard over the warm pool
    (``--jobs``) and memoize in the result cache; the footer scores each
    policy's worst victim-p99 degradation.  With ``--trace-out`` the
    per-tenant degradation curves are written as a Chrome trace.
    """
    from .tenants.sweep import run_tenants

    result = run_tenants(
        [policies.policy_by_name(name) for name in args.policies],
        mix=args.tenant_mix,
        tenants=args.tenants,
        intensities=args.intensities,
        seed=args.seed,
        duration_us=args.duration_us,
        jobs=args.jobs,
        checked=args.checked,
    )
    return _finish_sweep(args, result, "sweep summary", label="sweep")


def cmd_trace(args: argparse.Namespace) -> int:
    """Run the reference burst experiment with tracing; export Chrome JSON.

    The workload mixes a class-0 app (TouchDrop: DDIO fills + MLC
    steering) with a class-1 app (L2FwdPayloadDrop: selective direct-DRAM
    placement), so under the ``idio`` policy all four mechanism
    categories show up in one trace.
    """
    policy = policies.policy_by_name(args.policy)
    server = ServerConfig(
        policy=policy,
        apps=["touchdrop", "l2fwd-payload-drop"],
        num_nf_cores=2,
        ring_size=args.ring,
        trace_enabled=True,
        trace_max_events=args.max_events,
    )
    experiment = Experiment(
        name=f"trace-{args.policy}",
        server=server,
        burst_rate_gbps=args.rate,
    )
    result = run_experiment(experiment)
    assert result.server is not None
    recorder = result.server.trace_recorder
    assert recorder is not None
    events = recorder.export(args.out)
    print(recorder.summary_line())
    breakdown = recorder.latency_breakdown_ns()
    if breakdown:
        parts = ", ".join(f"{k}={v:.1f}" for k, v in breakdown.items())
        print(f"latency breakdown: {parts}")
    print(f"wrote {events} trace events to {args.out}")
    print("open in chrome://tracing or https://ui.perfetto.dev")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Result-cache maintenance: ``stats`` / ``verify`` / ``gc``."""
    from . import cache as cache_mod

    root = args.cache_dir or cache_mod.default_cache_dir()
    cache = cache_mod.ResultCache(root)
    if args.cache_command == "stats":
        stats = cache.stats()
        print(f"cache root:  {stats['root']}")
        print(f"entries:     {stats['entries']}")
        print(f"bytes:       {stats['bytes']}")
        for version, count in stats["versions"].items():
            print(f"  version {version}: {count} entries")
        return 0
    if args.cache_command == "verify":
        report = cache.verify(
            sample=args.sample,
            seed=args.seed,
            checked=args.checked,
            evict=not args.no_evict,
        )
        print(
            f"verified {report.sampled}/{report.entries} entries: "
            f"{report.verified_ok} ok, {len(report.corrupt)} corrupt, "
            f"{len(report.mismatched)} mismatched, {report.evicted} evicted"
        )
        for digest in report.corrupt:
            print(f"  corrupt:    {digest}")
        for digest in report.mismatched:
            print(f"  mismatched: {digest}")
        return 0 if report.clean else 1
    if args.cache_command == "gc":
        report = cache.gc(
            max_bytes=args.max_bytes, max_age_days=args.max_age_days
        )
        print(
            f"gc: {report.entries_before} -> {report.entries_after} entries "
            f"({report.bytes_before} -> {report.bytes_after} bytes); evicted "
            f"{report.evicted_foreign} foreign, {report.evicted_stale} stale, "
            f"{report.evicted_over_budget} over budget"
        )
        return 0
    raise AssertionError(f"unhandled cache command {args.cache_command!r}")


def _install_cache(args: argparse.Namespace):
    """Install the invocation's default result cache from CLI flags.

    Returns ``(cache, restore)`` where ``restore()`` undoes the install;
    caching stays off unless ``--cache-dir`` or ``$REPRO_CACHE_DIR``
    names a directory, and ``--no-cache`` wins over both.
    """
    import os

    from . import cache as cache_mod

    if getattr(args, "no_cache", False):
        previous = cache_mod.set_default_cache(None)
        return None, lambda: cache_mod.set_default_cache(previous)
    root = getattr(args, "cache_dir", None) or os.environ.get(
        cache_mod.CACHE_DIR_ENV
    )
    if not root:
        return None, lambda: None
    cache = cache_mod.ResultCache(root)
    previous = cache_mod.set_default_cache(cache)
    return cache, lambda: cache_mod.set_default_cache(previous)


def _check_tenants(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Reject a ``--tenants`` count the chosen mix cannot build as a usage
    error (``tenants`` always builds a mix; other commands when N > 0)."""
    if args.command == "tenants" or getattr(args, "tenants", 0) > 0:
        from .tenants.scenarios import tenant_mix

        try:
            tenant_mix(args.tenant_mix, tenants=args.tenants)
        except ValueError as exc:
            parser.exit(2, f"{parser.prog} {args.command}: error: argument --tenants: {exc}\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_tenants(parser, args)
    except SystemExit as exc:  # --help and --version exit 0
        if exc.code != 2:
            raise
        return 2
    handlers = {
        "list": cmd_list,
        "run": cmd_run,
        "compare": cmd_compare,
        "figure": cmd_figure,
        "validate": cmd_validate,
        "check": cmd_check,
        "trace": cmd_trace,
        "faults": cmd_faults,
        "tenants": cmd_tenants,
        "cache": cmd_cache,
    }
    cache, restore = (None, lambda: None)
    if args.command != "cache":
        cache, restore = _install_cache(args)
    try:
        code = handlers[args.command](args)
        if cache is not None and (cache.hits or cache.misses):
            print(
                f"[cache: {cache.hits} hits, {cache.misses} misses, "
                f"{cache.stores} stores @ {cache.root}]"
            )
        return code
    finally:
        restore()
        # Every parallel sweep in the invocation shared one warm pool;
        # drain it on the way out (idempotent when nothing spawned).
        shutdown_pool()


if __name__ == "__main__":
    raise SystemExit(main())
