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
    idio-repro rack --servers 4 --jobs 4           # rack-scale fleet sweep
    idio-repro tenants --policies ddio,idio,ioca   # isolation matrix
    idio-repro compare --cache-dir .repro-cache    # memoize the sweep
    idio-repro cache stats                         # result-cache census

The flag vocabulary is shared across subcommands via argparse parent
parsers: every command that runs experiments accepts the same
``--workload``/``--app``, ``--policy``, ``--jobs``, ``--seed``, and
``--out`` spellings with the same semantics, and the multi-tenant
commands (``tenants``, ``faults``, ``rack``) share the scenario
vocabulary ``--tenants``/``--tenant-mix``/``--intensity``.  Caching is opt-in:
``--cache-dir`` (or the ``REPRO_CACHE_DIR`` environment variable)
installs a result cache for the invocation, and ``--no-cache`` disables
it even when the variable is set.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

from .core import policies
from .harness import extensions, figures
from .harness.experiment import Experiment, run_experiment
from .harness.runner import run_experiments, shutdown_pool
from .harness.report import format_table, timeline_block
from .harness.server import APP_FACTORIES, ServerConfig
from .harness.traces import export_csv, to_csv_string
from .sim import units

#: Figure/extension entry points exposed by ``idio-repro figure``.
FIGURE_COMMANDS: Dict[str, Callable[[], object]] = {
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
    from .rack import RACK_TRAFFIC_KINDS

    parser = argparse.ArgumentParser(
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
        ],
    )
    faults_p.add_argument(
        "--policies",
        default="ddio,idio",
        help="comma-separated policy names (default: %(default)s)",
    )
    faults_p.add_argument(
        "--layers",
        default="nic,pcie,mem,cpu",
        help="comma-separated fault layers (from nic,pcie,mem,cpu,all; "
        "default: %(default)s)",
    )
    faults_p.add_argument(
        "--intensities",
        default="0,0.5,1",
        help="comma-separated probability scale factors; 0 is the "
        "fault-free baseline row (default: %(default)s)",
    )
    faults_p.add_argument(
        "--checked",
        action="store_true",
        help="attach the invariant sanitizer to every faulted run",
    )
    faults_p.add_argument(
        "--quick", action="store_true", help="reduced-scale smoke matrix"
    )
    faults_p.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        metavar="S",
        help="per-experiment wall-clock budget (pooled runs enforce it)",
    )
    faults_p.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="extra attempts for crashed experiments (default: %(default)s)",
    )
    faults_p.add_argument(
        "--out", help="write the sweep's failure manifest JSON to this file"
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

    rack_p = sub.add_parser(
        "rack",
        help="run a rack-scale sweep: a ToR load balancer steering flows "
        "across N simulated servers",
        parents=[
            _jobs_parent(),
            _policy_parent("ddio"),
            _cache_parent(),
            _scenario_parent(),
        ],
    )
    rack_p.add_argument(
        "--servers",
        type=_positive_int,
        default=4,
        metavar="N",
        help="servers behind the ToR switch (default: %(default)s)",
    )
    rack_p.add_argument(
        "--flows",
        type=_positive_int,
        default=8192,
        metavar="N",
        help="concurrent flows the ToR flow table steers (default: %(default)s)",
    )
    rack_p.add_argument(
        "--steering",
        choices=("rss", "rendezvous"),
        default="rss",
        help="flow-to-server steering mode (default: %(default)s)",
    )
    rack_p.add_argument(
        "--profile",
        choices=RACK_TRAFFIC_KINDS,
        default="heavytail",
        help="rack traffic profile (default: %(default)s)",
    )
    rack_p.add_argument(
        "--rate",
        type=float,
        default=100.0,
        help="aggregate offered load across the rack in Gbps (default: %(default)s)",
    )
    rack_p.add_argument(
        "--duration-us",
        type=float,
        default=200.0,
        help="traffic duration per server (default: %(default)s)",
    )
    rack_p.add_argument(
        "--seed", type=int, default=0, help="rack master seed (default: %(default)s)"
    )
    rack_p.add_argument(
        "--checked",
        action="store_true",
        help="attach the invariant sanitizer to every server",
    )
    rack_p.add_argument(
        "--trace-out",
        metavar="PATH",
        help="export per-server lanes as a Chrome-trace JSON",
    )
    rack_p.add_argument(
        "--out", metavar="PATH", help="write the rack summary JSON to this file"
    )

    tenants_p = sub.add_parser(
        "tenants",
        help="run the multi-tenant isolation matrix "
        "(policy x tenant mix x aggressor intensity)",
        parents=[_jobs_parent(), _cache_parent(), _scenario_parent()],
    )
    tenants_p.set_defaults(tenants=2)
    tenants_p.add_argument(
        "--policies",
        default="ddio,idio,ioca",
        help="comma-separated policy names (default: %(default)s)",
    )
    tenants_p.add_argument(
        "--intensities",
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
        type=float,
        default=200.0,
        help="traffic duration per cell (default: %(default)s)",
    )
    tenants_p.add_argument(
        "--checked",
        action="store_true",
        help="attach the invariant sanitizer (way-quota conservation) "
        "to every cell",
    )
    tenants_p.add_argument(
        "--trace-out",
        metavar="PATH",
        help="export per-tenant degradation curves as a Chrome-trace JSON",
    )
    tenants_p.add_argument(
        "--out", metavar="PATH", help="write the sweep summary JSON to this file"
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
    trace_p.add_argument("--policy", default="idio", help="placement policy name")
    trace_p.add_argument(
        "--rate", type=float, default=100.0, help="burst rate in Gbps"
    )
    trace_p.add_argument("--ring", type=int, default=1024, help="RX ring size")
    trace_p.add_argument(
        "--max-events",
        type=_positive_int,
        default=2_000_000,
        metavar="N",
        help="recorder event cap (default: %(default)s)",
    )

    return parser


def _positive_int(text: str) -> int:
    """argparse type: a strictly positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}"
        )
    return value


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
    p.add_argument("--policy", default=default, help="placement policy name")
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
    """Shared multi-tenant scenario vocabulary (``tenants``/``faults``/``rack``).

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
        type=int,
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
        type=float,
        default=1.0,
        help="aggressor-load scale for the tenant mix (default: %(default)s)",
    )
    return p


def _tenant_set(args: argparse.Namespace, seed: int):
    """The :class:`TenantSet` requested by the scenario flags, or ``None``."""
    if getattr(args, "tenants", 0) <= 0:
        return None
    from .tenants.scenarios import tenant_mix

    return tenant_mix(
        args.tenant_mix,
        tenants=args.tenants,
        intensity=args.intensity,
        seed=seed,
    )


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
    p.add_argument("--ring", type=int, default=1024, help="RX ring size")
    p.add_argument("--packet-bytes", type=int, default=1514)
    p.add_argument(
        "--traffic", choices=("bursty", "steady"), default="bursty"
    )
    p.add_argument("--rate", type=float, default=25.0, help="Gbps (burst or per-NF)")
    p.add_argument("--bursts", type=int, default=1, help="number of bursts")
    p.add_argument(
        "--duration-us", type=float, default=1500.0, help="steady-traffic duration"
    )
    p.add_argument("--antagonist", action="store_true", help="add the LLCAntagonist")
    p.add_argument(
        "--recycle",
        choices=("run_to_completion", "copy", "reallocate"),
        default="run_to_completion",
    )
    p.add_argument("--nf-cores", type=int, default=2)
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
    names = [n.strip() for n in args.policies.split(",") if n.strip()]
    if not names:
        print("no policies given", file=sys.stderr)
        return 2
    summaries = run_experiments(
        [_experiment_from_args(args, name) for name in names], jobs=args.jobs
    )
    results = dict(zip(names, summaries))
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
    report = FIGURE_COMMANDS[args.name](**kwargs)
    print(report.text)
    print(_eps_footer(report.results.values()))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.text + "\n")
        print(f"(report written to {args.out})")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from .harness.validation import run_validation

    card = run_validation(quick=args.quick, jobs=args.jobs)
    print(card.render())
    return 0 if card.all_passed else 1


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

    names = [n.strip() for n in args.policies.split(",") if n.strip()]
    if not names:
        print("no policies given", file=sys.stderr)
        return 2
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
    for name in names:
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
        if name == names[0]:
            observed = fingerprint_digest(result.summary())

    reference = make_experiment(names[0], checked=False)
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
    import json

    from .faults import FAULT_LAYERS, FaultPlan, standard_plan
    from .harness.runner import run_sweep

    names = [n.strip() for n in args.policies.split(",") if n.strip()]
    layers = [l.strip() for l in args.layers.split(",") if l.strip()]
    try:
        intensities = [float(x) for x in args.intensities.split(",") if x.strip()]
    except ValueError:
        print(f"invalid --intensities {args.intensities!r}", file=sys.stderr)
        return 2
    if not names or not layers or not intensities:
        print("empty --policies / --layers / --intensities", file=sys.stderr)
        return 2
    known = set(FAULT_LAYERS) | {"all"}
    unknown = [l for l in layers if l not in known]
    if unknown:
        print(f"unknown fault layers {unknown}; choose from {sorted(known)}",
              file=sys.stderr)
        return 2

    ring = 128 if args.quick else args.ring
    rate = min(args.rate, 50.0) if args.quick else args.rate
    tenant_set = _tenant_set(args, args.seed)

    def make_experiment(policy_name: str, label: str, plan: FaultPlan) -> Experiment:
        base = _experiment_from_args(args, policy_name)
        server = replace(
            base.server,
            ring_size=ring,
            num_nf_cores=(
                tenant_set.total_nf_cores if tenant_set is not None
                else args.nf_cores
            ),
            checked_mode=args.checked,
            fault_plan=plan,
            tenants=tenant_set,
        )
        return replace(
            base,
            name=f"faults-{policy_name}-{label}",
            server=server,
            burst_rate_gbps=rate,
            steady_rate_gbps_per_nf=rate,
        )

    cells: List[tuple] = []  # (policy, layer label, intensity, Experiment)
    for policy_name in names:
        if any(i == 0 for i in intensities):
            cells.append(
                (policy_name, "none", 0.0,
                 make_experiment(policy_name, "baseline", FaultPlan()))
            )
        for layer in layers:
            for intensity in intensities:
                if intensity == 0:
                    continue
                plan = standard_plan(layer, intensity, seed=args.seed)
                cells.append(
                    (policy_name, layer, intensity,
                     make_experiment(policy_name, f"{layer}-{intensity:g}", plan))
                )

    sweep = run_sweep(
        [exp for (_, _, _, exp) in cells],
        jobs=args.jobs,
        timeout_s=args.timeout_s,
        retries=args.retries,
    )

    rows: List[List[object]] = []
    for (policy_name, layer, intensity, _), summary, record in zip(
        cells, sweep.summaries, sweep.records
    ):
        if summary is None:
            rows.append([policy_name, layer, f"{intensity:g}", record.status,
                         None, None, None, None])
            continue
        rows.append(
            [
                policy_name,
                layer,
                f"{intensity:g}",
                record.status,
                summary.completed,
                summary.rx_drops,
                (summary.p99_ns or 0) / 1000.0 if summary.p99_ns else None,
                sum(summary.fault_counts.values()),
            ]
        )
    print(
        format_table(
            ["policy", "layer", "intensity", "status", "completed", "drops",
             "p99 us", "faults"],
            rows,
            title=f"degradation matrix: {args.app} @ {rate:g} Gbps, ring {ring}",
        )
    )
    counts = ", ".join(f"{k}={v}" for k, v in sorted(sweep.counts().items()))
    print(f"[{len(sweep.records)} cells: {counts}]")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(sweep.failure_manifest(), fh, indent=2)
            fh.write("\n")
        print(f"(failure manifest written to {args.out})")
    return sweep.exit_code


def cmd_rack(args: argparse.Namespace) -> int:
    """Run one rack sweep and print the per-server + aggregate table.

    With ``--trace-out`` a :class:`~repro.obs.trace.TraceRecorder`
    subscribes to the rack bus before the sweep, so every server shows up
    as its own Chrome-trace process with counter lanes per stream.
    """
    import json

    from .obs.trace import TraceRecorder
    from .rack import RackConfig, SimulatedRack

    tenant_set = _tenant_set(args, args.seed)
    config = RackConfig(
        name="cli-rack",
        num_servers=args.servers,
        server=ServerConfig(
            policy=policies.policy_by_name(args.policy),
            checked_mode=args.checked,
            num_nf_cores=(
                tenant_set.total_nf_cores if tenant_set is not None else 2
            ),
            tenants=tenant_set,
        ),
        total_flows=args.flows,
        steering=args.steering,
        traffic=args.profile,
        offered_gbps=args.rate,
        duration_us=args.duration_us,
        seed=args.seed,
    )
    rack = SimulatedRack(config)
    recorder = TraceRecorder().attach(rack.bus) if args.trace_out else None
    summary = rack.run(jobs=args.jobs)
    print(summary.render())
    print(f"rack fingerprint: {summary.fingerprint}")
    print(
        f"[{summary.events_fired} events in {summary.wall_seconds:.2f}s "
        "sim wall time]"
    )
    if recorder is not None:
        events = recorder.export(args.trace_out)
        print(f"wrote {events} trace events to {args.trace_out}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary.to_json(), fh, indent=2)
            fh.write("\n")
        print(f"(rack summary written to {args.out})")
    return 0


def cmd_tenants(args: argparse.Namespace) -> int:
    """Run the multi-tenant isolation matrix and print it.

    Cells (policy x aggressor intensity over one scenario pack) fan out
    through the resilient sweep runner, so they shard over the warm pool
    (``--jobs``) and memoize in the result cache; the footer scores each
    policy's worst victim-p99 degradation.  With ``--trace-out`` a
    :class:`~repro.obs.trace.TraceRecorder` captures the per-tenant
    degradation curves as a Chrome trace.
    """
    import json

    from .obs.bus import EventBus
    from .obs.trace import TraceRecorder
    from .tenants.sweep import run_tenants

    names = [n.strip() for n in args.policies.split(",") if n.strip()]
    if not names:
        print("no policies given", file=sys.stderr)
        return 2
    if args.tenants < 1:
        print("--tenants must be at least 1", file=sys.stderr)
        return 2
    try:
        configs = [policies.policy_by_name(name) for name in names]
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        intensities = [float(x) for x in args.intensities.split(",") if x.strip()]
    except ValueError:
        print(f"invalid --intensities {args.intensities!r}", file=sys.stderr)
        return 2
    if not intensities:
        print("empty --intensities", file=sys.stderr)
        return 2

    bus = None
    recorder = None
    if args.trace_out:
        bus = EventBus()
        recorder = TraceRecorder().attach(bus)
    summary = run_tenants(
        configs,
        mix=args.tenant_mix,
        tenants=args.tenants,
        intensities=intensities,
        seed=args.seed,
        duration_us=args.duration_us,
        jobs=args.jobs,
        checked=args.checked,
        bus=bus,
    )
    print(summary.render())
    print(f"sweep fingerprint: {summary.fingerprint}")
    if recorder is not None:
        events = recorder.export(args.trace_out)
        recorder.detach()
        print(f"wrote {events} trace events to {args.trace_out}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary.to_json(), fh, indent=2)
            fh.write("\n")
        print(f"(sweep summary written to {args.out})")
    return summary.exit_code


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


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": cmd_list,
        "run": cmd_run,
        "compare": cmd_compare,
        "figure": cmd_figure,
        "validate": cmd_validate,
        "check": cmd_check,
        "rack": cmd_rack,
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
