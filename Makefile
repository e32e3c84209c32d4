PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-benchmarks validate lint analyze check faults-smoke tenants-smoke examples-smoke fuzz-bulk

test:
	$(PYTHON) -m pytest -x -q

# Deep differential fuzz of the hierarchy's bulk line runs against
# per-line transactions (2000 examples per property, see
# tests/conftest.py).  Checked mode observes the hierarchy, which turns
# the fused paths off, so these tests are their only oracle.
fuzz-bulk:
	$(PYTHON) -m pytest tests/test_mem_bulk_store.py -q --hypothesis-profile=deep

# Requires ruff (pip install ruff); configuration lives in pyproject.toml.
lint:
	ruff check src tests tools benchmarks

# Full static-analysis battery: simlint SIM001–SIM017 (always; parses in
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

# Tenant-tier smoke gate: the 2-tenant noisy-neighbor isolation sweep
# under DDIO vs IDIO vs IOCA with checked mode on; fails unless the
# victim's p99 improves under IOCA's way partitioning (see docs/api.md).
tenants-smoke:
	$(PYTHON) tools/tenants_smoke.py

# Examples smoke gate: run every examples/*.py end to end (~45 s); the
# first script that exits nonzero fails the target.
examples-smoke:
	@set -e; for script in examples/*.py; do \
		echo "== $$script"; $(PYTHON) $$script > /dev/null; \
	done

test-benchmarks:
	$(PYTHON) -m pytest benchmarks -q

validate:
	$(PYTHON) -m repro.cli validate --quick
