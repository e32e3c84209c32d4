"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

``python3 bench/run.py`` is the entry point; ``bench/README.md`` documents
every workload and metric.  Nothing here is imported by ``src/repro``.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes (result caches, pool spool files,
#: per-workload records) stays inside the checkout, under this directory.
SCRATCH = ROOT / ".bench_tmp"


def bootstrap() -> None:
    """Make ``repro`` come from this checkout's ``src/``, or exit with 2.

    A number the benchmark prints must come from the code that is checked
    out, so an installed ``repro`` elsewhere is never used.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no simulator sources at {SRC / 'repro'}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.stderr.write(f"bench: imported repro from {repro.__file__}, not {SRC}\n")
        raise SystemExit(2)
    SCRATCH.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(SCRATCH)
    tempfile.tempdir = str(SCRATCH)
