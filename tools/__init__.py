"""Developer tooling for the reproduction (not shipped with the package).

``tools.simlint`` is the repo-specific static-analysis pass wired into
``make analyze``; ``tools/analyze.py`` is the driver that sequences
ruff + simlint + mypy, and ``tools/tenants_smoke.py`` the tenant-tier
smoke gate.  The repository benchmark lives in ``bench/`` (see
``bench/README.md``).
"""
