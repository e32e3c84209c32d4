"""``python -m pytest bench``: import ``repro`` from this checkout's ``src/``."""

import sys

import bench

if str(bench.SRC) not in sys.path:
    sys.path.insert(0, str(bench.SRC))
