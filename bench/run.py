#!/usr/bin/env python3
"""Run the repository benchmark.

Usage (from the repository root)::

    python3 bench/run.py [--seed N] [--out FILE]        # every workload, then the tables
    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
    python3 bench/run.py --smoke [--out FILE]           # one tiny rep of every workload

With ``--workload`` one workload runs in this process for ``--seconds``
(default: ``run_seconds`` of ``BENCHMARK.json``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the metrics
are ``BENCHMARK.json``'s ``end_to_end`` metrics, with ``--trace 1`` its
``per_layer`` metrics.  ``--out`` writes the full record: every metric,
the per-rep samples and the fingerprint.

Without ``--workload`` each workload runs twice in a fresh subprocess
(``--trace 0``, then ``--trace 1``); the end-to-end and per-layer tables
are printed and ``--out`` collects every record.  ``bench/compare.py``
compares two such files.  The exit code is 1 when any operation failed
or any correctness gate was violated.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SETUP_STARTS = 5
DEFAULT_SEED = 1234


class Ops:
    """Counts attempted and failed operations and the gate violations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.violations: List[str] = []

    def _fail(self, label: str, problems: List[str]) -> None:
        self.failed += 1
        self.violations.extend(f"{label}: {p}" for p in problems)

    def call(self, label: str, fn, *args):
        """Run one operation; a raised exception counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - a failed operation is reported, not fatal
            traceback.print_exc(file=sys.stderr)
            self._fail(label, [f"{type(exc).__name__}: {exc}"])
            return None

    def rep(self, label: str, workload, seed: int, smoke: bool, jobs: int, reference: Optional[str], watch, tracer=None):
        """Run one rep and apply the correctness gates to it."""
        from bench import workloads

        def run():
            gc.collect()
            if tracer is None:
                return workload.run(seed, smoke, jobs, watch)
            with tracer.rep():
                rep = workload.run(seed, smoke, jobs, watch)
            tracer.last.check()
            return rep

        rep = self.call(label, run)
        if rep is None:
            return None
        problems = rep.violations + workloads.accounting_violations(rep)
        if reference is not None and rep.fingerprint != reference:
            problems.append(f"fingerprint {rep.fingerprint[:16]} != reference {reference[:16]}")
        if problems:
            self._fail(label, problems)
        return rep


def _setup_once(name: str, seed: int, smoke: bool) -> float:
    import bench
    from bench import hostspeed

    cmd = [sys.executable, "-m", "bench.setup_probe", "--workload", name, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    before = hostspeed.measure()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=bench.ROOT, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    after = hostspeed.measure()
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"setup probe exited {code} after {line!r}")
    return hostspeed.normalise(elapsed, before, after)


def _until(deadline: float, smoke: bool, done: int) -> bool:
    return done == 0 or (not smoke and time.perf_counter() < deadline)


def timed_pass(workload, seed: int, seconds: float, smoke: bool, ops: Ops) -> Tuple[dict, dict, Optional[str]]:
    """End-to-end metrics, tracing off: (metrics, samples, fingerprint)."""
    from bench import hostspeed, workloads
    from repro.harness import runner

    jobs = workload.jobs()
    setup = []
    for i in range(1 if smoke else SETUP_STARTS):
        value = ops.call(f"setup start {i + 1}", _setup_once, workload.name, seed, smoke)
        if value is not None:
            setup.append(value)

    watch = hostspeed.Stopwatch()
    first = ops.rep("warm-up rep", workload, seed, smoke, jobs, None, watch)
    reference = first.fingerprint if first is not None else None
    walls: List[float] = []
    rates: List[float] = []
    warm: List[float] = []
    attempts = 0
    deadline = time.perf_counter() + seconds
    while _until(deadline, smoke, attempts):
        attempts += 1
        rep = ops.rep(f"timed rep {attempts}", workload, seed, smoke, jobs, reference, watch)
        if rep is None:
            continue
        first = first or rep
        walls.append(rep.wall_s)
        rates.append(rep.events / rep.wall_s)
        warm.extend(rep.warm_s)
    runner.shutdown_pool()

    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    metrics = {
        "failed_frac": (ops.failed / max(ops.attempted, 1), "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    if setup:
        metrics["setup_s"] = (statistics.median(setup), "s")
    if walls:
        metrics["wall_s"] = (statistics.median(walls), "s")
        metrics["events_per_s"] = (statistics.median(rates), "events/s")
    if warm:
        metrics["warm_s"] = (statistics.median(warm), "s")
    if first is not None:
        metrics["drop_frac"] = (workloads.drop_frac(first), "ratio")
        for name, value in workload.sim_metrics(first).items():
            metrics[name] = (value, "count" if name.endswith("_samples") else _unit(name))
    samples = {"wall_s": walls, "events_per_s": rates, "setup_s": setup, "warm_s": warm}
    return metrics, samples, reference


def _unit(name: str) -> str:
    from bench import catalogue

    return catalogue.BY_NAME[name].unit


def traced_pass(workload, seed: int, seconds: float, smoke: bool, ops: Ops) -> Tuple[dict, Optional[str]]:
    """Per-layer metrics: untraced serial reps, then traced serial reps."""
    from bench import hostspeed, trace, workloads
    from repro.harness import runner

    # The warm-up rep runs like a timed rep (pooled where the workload is),
    # so the traced serial reps also check serial against pool.
    watch = hostspeed.Stopwatch()
    pooled = ops.rep("warm-up rep", workload, seed, smoke, workload.jobs(), None, watch)
    runner.shutdown_pool()
    reference = pooled.fingerprint if pooled is not None else None
    half = seconds / 2.0

    untraced: List[float] = []
    deadline = time.perf_counter() + half
    while _until(deadline, smoke, len(untraced)):
        first = len(watch.segments)
        if ops.rep(f"untraced rep {len(untraced) + 1}", workload, seed, smoke, 1, reference, watch) is None:
            break
        untraced.append(sum(watch.segments[first:]))

    # Reference runs inside a traced rep would be time no layer claims, so
    # a traced rep is calibrated as a whole, from outside.
    traces = []
    traced_rep = None
    raw = hostspeed.Stopwatch(calibrated=False)
    with trace.Tracer() as tracer:
        deadline = time.perf_counter() + half
        before = hostspeed.measure()
        while _until(deadline, smoke, len(traces)):
            rep = ops.rep(f"traced rep {len(traces) + 1}", workload, seed, smoke, 1, reference, raw, tracer)
            after = hostspeed.measure()
            if rep is None:
                break
            traces.append((tracer.last, hostspeed.normalise(1.0, before, after)))
            traced_rep, before = rep, after
    if not traces or not untraced or pooled is None:
        return {}, reference
    metrics = layer_metrics(traces, statistics.median(untraced), traced_rep)
    metrics.update(pool_metrics(pooled))
    for name, value in workloads.model_counts(traced_rep).items():
        metrics[name] = (value, _model_unit(name))
    return metrics, reference


def _model_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_ns"):
        return "sim_ns"
    return "count"


def layer_metrics(traces, untraced_median: float, rep) -> Dict[str, Tuple[float, str]]:
    """Per-rep means of the traced reps, at reference host speed."""
    from bench import trace, workloads

    n = len(traces)
    wall = sum(t.wall_s * scale for t, scale in traces) / n

    def mean_self(layer: str) -> float:
        return sum(t.self_s.get(layer, 0.0) * scale for t, scale in traces) / n

    def mean_calls(layer: str) -> float:
        return sum(t.calls.get(layer, 0) for t, _ in traces) / n

    out: Dict[str, Tuple[float, str]] = {}
    for layer in trace.LAYERS:
        self_s = mean_self(layer)
        out[f"{layer}.calls"] = (mean_calls(layer), "count")
        out[f"{layer}.self_s"] = (self_s, "s")
        out[f"{layer}.share"] = (self_s / wall, "ratio")

    def per_unit(layer: str, count: float) -> float:
        return mean_self(layer) / count * 1e6 if count else 0.0

    counts = workloads.model_counts(rep)
    out["mem.demand.us_per_call"] = (per_unit("mem.demand", mean_calls("mem.demand")), "us")
    out["pcie.dma_write.us_per_line"] = (per_unit("pcie.dma_write", counts["model.pcie_writes"]), "us")
    out["pcie.dma_read.us_per_line"] = (per_unit("pcie.dma_read", counts["model.pcie_reads"]), "us")
    out["sim.kernel.us_per_event"] = (per_unit("sim.kernel", rep.events), "us")
    for phase in trace.PHASES:
        out[f"phase.{phase}_s"] = (sum(t.phases.get(phase, 0.0) * s for t, s in traces) / n, "s")
    out["trace.overhead"] = (wall / untraced_median, "ratio")
    return out


def pool_metrics(rep) -> Dict[str, Tuple[float, str]]:
    return {
        "runner.workers": (rep.dispatch.get("workers", 1), "count"),
        "runner.chunksize": (rep.dispatch.get("chunksize", 0), "count"),
        "runner.retried": (rep.retried, "count"),
        "cache.hits": (rep.cache.get("hits", 0), "count"),
        "cache.misses": (rep.cache.get("misses", 0), "count"),
        "cache.bytes": (rep.cache.get("bytes", 0), "bytes"),
    }


def load_spec() -> dict:
    import bench

    return json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def run_workload(args) -> int:
    """One workload in this process; prints the result line last."""
    from bench import workloads

    spec = load_spec()
    workload = workloads.WORKLOADS[args.workload]
    ops = Ops()
    if args.trace:
        metrics, fingerprint = traced_pass(workload, args.seed, args.seconds, args.smoke, ops)
        samples: dict = {}
        declared = [m["name"] for m in spec["per_layer"]]
    else:
        metrics, samples, fingerprint = timed_pass(workload, args.seed, args.seconds, args.smoke, ops)
        declared = [m["name"] for m in spec["end_to_end"]]
    missing = [name for name in declared if name not in metrics]
    if missing and not ops.failed:
        ops.violations.append(f"metrics not produced: {', '.join(missing)}")
    correct = not ops.failed and not missing
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14} {name:34} {value:>16.6g} {unit}")
    for violation in ops.violations:
        print(f"violation: {violation}", file=sys.stderr)
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "smoke": args.smoke,
            "seconds": args.seconds,
            "correct": correct,
            "attempted": ops.attempted,
            "failed": ops.failed,
            "violations": ops.violations,
            "fingerprint": fingerprint,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "samples": samples,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    result = {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in declared if k in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, timed then traced, each in a fresh subprocess."""
    import bench

    spec = load_spec()
    records: Dict[str, dict] = {}
    ok = True
    for entry in spec["workloads"]:
        name = entry["name"]
        records[name] = {}
        for trace_flag, kind in ((0, "timed"), (1, "traced")):
            out = bench.SCRATCH / f"record-{name}-{kind}.json"
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace_flag), "--out", str(out),
            ]
            if args.smoke:
                cmd.append("--smoke")
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=bench.ROOT, stdout=subprocess.PIPE, text=True)
            status = "ok" if proc.returncode == 0 else f"FAILED (exit {proc.returncode})"
            print(f"{name:14} {kind:6} {status} ({time.perf_counter() - start:.1f} s)", flush=True)
            if proc.returncode != 0:
                ok = False
                print(proc.stdout, end="")
            records[name][kind] = json.loads(out.read_text()) if out.exists() else {}
            out.unlink(missing_ok=True)
    print()
    print(render_end_to_end(records))
    print()
    print(render_layers(records))
    if args.out:
        payload = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke, "workloads": records}
        Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
        print(f"\nwrote {args.out}")
    return 0 if ok else 1


def _value(record: dict, name: str) -> Optional[float]:
    metric = record.get("metrics", {}).get(name)
    return None if metric is None else metric["value"]


def render_end_to_end(records: Dict[str, dict]) -> str:
    from bench import catalogue

    names = list(records)
    lines = [f"{'end-to-end metric':24} {'unit':11}" + "".join(f"{n:>16}" for n in names)]
    for metric in catalogue.END_TO_END:
        cells = []
        for name in names:
            value = _value(records[name].get("timed", {}), metric.name)
            cells.append(f"{'-' if value is None else f'{value:.6g}':>16}")
        lines.append(f"{metric.name:24} {metric.unit:11}" + "".join(cells))
    return "\n".join(lines)


def render_layers(records: Dict[str, dict]) -> str:
    """Layers x workloads: share of the traced rep, self ms per rep, calls per rep."""
    from bench import trace

    names = list(records)
    traced = {name: records[name].get("traced", {}) for name in names}
    lines = [f"{'layer (share self-ms calls)':28}" + "".join(f"{n:>32}" for n in names)]
    for layer in trace.LAYERS:
        cells = []
        for name in names:
            share = _value(traced[name], f"{layer}.share")
            if share is None:
                cells.append(f"{'-':>32}")
                continue
            self_ms = _value(traced[name], f"{layer}.self_s") * 1e3
            calls = _value(traced[name], f"{layer}.calls")
            cells.append(f"{share * 100:8.1f}% {self_ms:10.1f} {calls:11.0f}")
        lines.append(f"{layer:28}" + "".join(cells))
    others = []
    for record in traced.values():
        for key in record.get("metrics", {}):
            if not key.endswith((".share", ".self_s", ".calls")) and key not in others:
                others.append(key)
    for key in others:
        cells = []
        for name in names:
            value = _value(traced[name], key)
            cells.append(f"{'-' if value is None else f'{value:.6g}':>32}")
        lines.append(f"{key:28}" + "".join(cells))
    return "\n".join(lines)


def main(argv=None) -> int:
    # The script directory would shadow the stdlib ``trace`` module with
    # bench/trace.py; the repository root makes ``bench`` a package instead.
    root = Path(__file__).resolve().parent.parent
    if sys.path and Path(sys.path[0] or ".").resolve() == root / "bench":
        sys.path[0] = str(root)
    elif str(root) not in sys.path:
        sys.path.insert(0, str(root))
    import bench

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full record(s) as JSON")
    parser.add_argument("--smoke", action="store_true", help="one rep at tiny sizes")
    args = parser.parse_args(argv)

    bench.bootstrap()
    from bench import workloads

    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.workload is None:
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
