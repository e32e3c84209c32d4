"""Command-line front end: ``python -m tools.simlint [paths...]``.

Runs the full SIM001-SIM017 battery (per-file rules + whole-program
engine) with the committed suppression baseline applied.  Machine
consumers use ``--json`` (stdout) and ``--sarif FILE``; CI adds
``--github`` so findings annotate the pull-request diff.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import ALL_RULES, lint_project
from .engine import DEFAULT_CACHE_DIR
from .output import (
    DEFAULT_BASELINE,
    apply_baseline,
    github_annotations,
    load_baseline,
    to_json,
    to_sarif,
    write_baseline,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="simlint",
        description="repo-specific determinism/modeling lint for the IDIO simulator",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="parse files with N worker processes (default: 1)",
    )
    parser.add_argument(
        "--no-program", action="store_true",
        help="per-file rules only (skip the whole-program engine)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit findings as JSON on stdout",
    )
    parser.add_argument(
        "--sarif", metavar="FILE", default=None,
        help="also write a SARIF 2.1.0 report to FILE",
    )
    parser.add_argument(
        "--github", action="store_true",
        help="emit ::error workflow commands (GitHub diff annotations)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE", default=None,
        help=f"suppression baseline (default: {DEFAULT_BASELINE} when present)",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the baseline to accept every current finding, then exit 0",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=DEFAULT_CACHE_DIR,
        help=f"parsed-AST cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk AST cache"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, desc in sorted(ALL_RULES.items()):
            print(f"{rule}  {desc}")
        return 0

    cache_dir = None if args.no_cache else Path(args.cache_dir)
    violations = lint_project(
        args.paths,
        jobs=args.jobs,
        cache_dir=cache_dir,
        program=not args.no_program,
    )

    baseline_path = Path(args.baseline) if args.baseline else DEFAULT_BASELINE
    if args.write_baseline:
        write_baseline(baseline_path, violations)
        print(f"simlint: baseline written to {baseline_path} "
              f"({len(violations)} entr{'y' if len(violations) == 1 else 'ies'})")
        return 0
    entries = (
        load_baseline(baseline_path) if baseline_path.is_file() else []
    )
    reported, suppressed, stale = apply_baseline(violations, entries)

    if args.sarif:
        Path(args.sarif).write_text(to_sarif(reported, ALL_RULES) + "\n")
    if args.as_json:
        print(to_json(reported, suppressed))
    else:
        for v in reported:
            print(v.render())
        if args.github:
            for line in github_annotations(reported):
                print(line)
        if suppressed:
            print(f"simlint: {len(suppressed)} finding(s) suppressed by baseline")
        if stale:
            print(
                f"simlint: {len(stale)} stale baseline entr"
                f"{'y' if len(stale) == 1 else 'ies'} (fixed findings — prune "
                f"with --write-baseline)",
                file=sys.stderr,
            )
        if reported:
            print(f"simlint: {len(reported)} violation(s)")
        else:
            print("simlint: clean")
    return 1 if reported else 0


if __name__ == "__main__":
    raise SystemExit(main())
