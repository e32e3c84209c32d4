PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-benchmarks validate lint analyze check faults-smoke rack-smoke tenants-smoke

test:
	$(PYTHON) -m pytest -x -q

# Requires ruff (pip install ruff); configuration lives in pyproject.toml.
lint:
	ruff check src tests tools benchmarks

# Full static-analysis battery: simlint SIM001-SIM015 (always; parses in
# parallel through the .simlint-cache AST store) + ruff/mypy (when
# installed -- missing tools are skipped with a notice, see tools/analyze.py;
# CI makes them mandatory with --require ruff,mypy).
analyze:
	$(PYTHON) tools/analyze.py --jobs 4

# Runtime correctness gate: checked-mode runs (invariant sanitizer) plus
# the dual-run determinism digest (see `repro check --help`).
check:
	$(PYTHON) -m repro.cli check --quick

# Fault-injection degradation matrix at reduced scale with the invariant
# sanitizer on; exits nonzero if any cell crashes, hangs, or violates an
# invariant (see docs/api.md).
faults-smoke:
	$(PYTHON) -m repro.cli faults --quick --checked --jobs 4

# Rack-tier smoke gate: a tiny 2-server rack sweep with the invariant
# sanitizer attached to every server (see `repro rack --help`).
rack-smoke:
	$(PYTHON) -m repro.cli rack --servers 2 --flows 1024 --rate 20 \
		--duration-us 100 --jobs 2 --checked

# Tenant-tier smoke gate: the 2-tenant noisy-neighbor isolation sweep
# under DDIO vs IDIO vs IOCA with checked mode on; fails unless the
# victim's p99 improves under IOCA's way partitioning (see docs/api.md).
tenants-smoke:
	$(PYTHON) tools/tenants_smoke.py

test-benchmarks:
	$(PYTHON) -m pytest benchmarks -q

validate:
	$(PYTHON) -m repro.cli validate --quick
