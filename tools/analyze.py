#!/usr/bin/env python3
"""Static-analysis driver: simlint + (when installed) ruff and mypy.

``make analyze`` runs this.  The repo-specific simlint pass
(:mod:`tools.simlint`) always runs — it has no dependencies beyond the
standard library — and covers the full SIM001-SIM017 battery including
the whole-program engine.  ruff and mypy are development-environment
tools that may not be installed (the simulator itself needs nothing
outside the stdlib); when one is missing it is *skipped with a notice*
rather than failing, so ``make analyze`` is useful on a bare checkout.
CI passes ``--require ruff,mypy`` to turn those skips into failures —
the gate is only as good as the tools that actually ran.

The exit code aggregates across every stage: any stage that ran and
failed (or was required and missing) fails the driver, regardless of
what later stages report.

Usage::

    PYTHONPATH=src python tools/analyze.py            # all available tools
    PYTHONPATH=src python tools/analyze.py --only simlint
    PYTHONPATH=src python tools/analyze.py --require ruff,mypy \\
        --sarif simlint.sarif --github                # what CI runs
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools.simlint import cli as simlint_cli  # noqa: E402

#: Modules mypy checks (the typed core; the harness layer is exempt).
MYPY_TARGETS = [
    "src/repro/mem",
    "src/repro/obs",
    "src/repro/analysis",
]

#: Paths ruff lints (same set as ``make lint``).
RUFF_TARGETS = ["src", "tests", "tools", "benchmarks"]


def run_simlint(args: argparse.Namespace) -> int:
    print("== simlint ==")
    argv = ["src/repro", "--jobs", str(args.jobs)]
    if args.sarif:
        argv += ["--sarif", args.sarif]
    if args.github:
        argv.append("--github")
    return simlint_cli.main(argv)


def _run_external(tool: str, argv: list[str], required: bool) -> int | None:
    """Run an optional external tool; ``None`` means skipped-and-allowed."""
    if shutil.which(tool) is None:
        if required:
            print(f"== {tool} == REQUIRED but not installed (pip install {tool})")
            return 1
        print(f"== {tool} == not installed, skipped (pip install {tool})")
        return None
    print(f"== {tool} ==")
    proc = subprocess.run([tool, *argv], cwd=REPO_ROOT)
    return proc.returncode


def run_ruff(args: argparse.Namespace) -> int | None:
    return _run_external("ruff", ["check", *RUFF_TARGETS], "ruff" in args.require)


def run_mypy(args: argparse.Namespace) -> int | None:
    return _run_external("mypy", MYPY_TARGETS, "mypy" in args.require)


TOOLS = {
    "simlint": run_simlint,
    "ruff": run_ruff,
    "mypy": run_mypy,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only",
        choices=sorted(TOOLS),
        help="run a single tool instead of the full battery",
    )
    parser.add_argument(
        "--require",
        default="",
        metavar="TOOLS",
        help="comma-separated external tools that must be installed "
        "(CI passes ruff,mypy; missing ones then fail instead of skipping)",
    )
    parser.add_argument(
        "--jobs", type=int, default=4, metavar="N",
        help="simlint parse parallelism (default: 4)",
    )
    parser.add_argument(
        "--sarif", metavar="FILE", default=None,
        help="write the simlint SARIF report to FILE",
    )
    parser.add_argument(
        "--github", action="store_true",
        help="emit GitHub ::error annotations for simlint findings",
    )
    args = parser.parse_args(argv)
    args.require = {t.strip() for t in args.require.split(",") if t.strip()}
    unknown = args.require - set(TOOLS)
    if unknown:
        parser.error(f"--require names unknown tools: {', '.join(sorted(unknown))}")

    names = [args.only] if args.only else list(TOOLS)
    failed: list[str] = []
    for name in names:
        status = TOOLS[name](args)
        if status is not None and status != 0:
            failed.append(name)
    if failed:
        print(f"analyze: FAIL ({', '.join(failed)})")
        return 1
    print("analyze: clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
