#!/usr/bin/env python3
"""Compare two benchmark sets: ``python3 bench/compare.py A.json B.json``.

``A`` (the baseline) and ``B`` are ``bench/run.py --out`` files.  Every
(end-to-end metric, workload) pair gets one verdict, one row per workload:

* an exact metric (deterministic for the seed) is ``same`` only when it
  is identical; any change is ``worse`` or ``better`` by its direction;
* any other metric is ``unresolved`` when either set's interquartile
  spread across reps, as a share of its median, is wider than the
  metric's bound, unless every rep of B reads better than every rep of A;
* otherwise it is ``worse`` (or ``better``) when B's median differs from
  A's by more than the bound in that direction, and ``same`` if not.

The fingerprints of each workload must also be identical.  Bounds are the
ones ``BENCHMARK.json`` declares (``bench/catalogue.py`` carries the same
numbers, and the metrics the driver contract leaves out).  The exit code
is 1 when any pair is worse or any fingerprint differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import List, Optional


def spread(samples: List[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 samples)."""
    if len(samples) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / abs(statistics.median(samples)) if median else 0.0


def verdict(metric, a: Optional[dict], b: Optional[dict]) -> str:
    """better / same / worse / unresolved for one metric of one workload."""
    if a is None or b is None:
        return "-" if a is None and b is None else "missing"
    va, vb = a["value"], b["value"]
    sign = 1.0 if metric.better == "lower" else -1.0
    if metric.exact:
        if va == vb:
            return "same"
        return "worse" if sign * (vb - va) > 0 else "better"
    sa, sb = a.get("samples") or [va], b.get("samples") or [vb]
    if spread(sa) > metric.bound or spread(sb) > metric.bound:
        b_wins = all(sign * (y - x) < 0 for x in sa for y in sb)
        return "better" if b_wins else "unresolved"
    change = sign * (vb - va) / abs(va) if va else 0.0
    if change > metric.bound:
        return "worse"
    if change < -metric.bound:
        return "better"
    return "same"


def _metric(record: dict, name: str) -> Optional[dict]:
    metric = record.get("metrics", {}).get(name)
    if metric is None:
        return None
    return {"value": metric["value"], "samples": record.get("samples", {}).get(name)}


def compare(set_a: dict, set_b: dict) -> int:
    from bench import catalogue

    names = [m.name for m in catalogue.END_TO_END]
    print(f"{'workload':14} {'fingerprint':12}" + "".join(f"{n:>24}" for n in names))
    bad = 0
    details = []
    for workload, rec_a in set_a["workloads"].items():
        rec_b = set_b["workloads"].get(workload, {})
        timed_a, timed_b = rec_a.get("timed", {}), rec_b.get("timed", {})
        fingerprints = {
            timed_a.get("fingerprint"),
            timed_b.get("fingerprint"),
            rec_a.get("traced", {}).get("fingerprint"),
            rec_b.get("traced", {}).get("fingerprint"),
        }
        fp = "same" if len(fingerprints) == 1 and None not in fingerprints else "differs"
        bad += fp == "differs"
        cells = []
        for metric in catalogue.END_TO_END:
            a, b = _metric(timed_a, metric.name), _metric(timed_b, metric.name)
            v = verdict(metric, a, b)
            bad += v in ("worse", "missing")
            cells.append(f"{v:>24}")
            if v not in ("same", "-"):
                details.append(
                    f"  {workload} {metric.name}: {a and a['value']} -> {b and b['value']} "
                    f"{metric.unit} ({v}, bound {metric.bound:g}{', exact' if metric.exact else ''})"
                )
        print(f"{workload:14} {fp:12}" + "".join(cells))
    if details:
        print("\n".join(["", "changed or unresolved pairs:"] + details))
    return 1 if bad else 0


def main(argv=None) -> int:
    root = Path(__file__).resolve().parent.parent
    if sys.path and Path(sys.path[0] or ".").resolve() == root / "bench":
        sys.path[0] = str(root)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="bench/run.py --out file of the baseline")
    parser.add_argument("candidate", help="bench/run.py --out file to judge")
    args = parser.parse_args(argv)
    with open(args.baseline) as fa, open(args.candidate) as fb:
        return compare(json.load(fa), json.load(fb))


if __name__ == "__main__":
    raise SystemExit(main())
