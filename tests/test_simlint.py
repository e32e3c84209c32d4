"""simlint self-tests: every rule catches its fixture; src/repro stays clean.

The fixture tree (``tests/fixtures/simlint``) holds one known-bad snippet
per rule plus a clean control file.  Each fixture's first line declares
the module it masquerades as (the scope rules key off module names), so
the snippets never have to live inside ``src/repro``.

Whole-program rules (SIM011-SIM015, SIM017) get fixture *packages* — directories
of interacting modules — linted through :func:`tools.simlint.lint_project`
so the cross-module machinery (import resolution, call graph, taint
summaries) is on the hook, paired with a clean package proving the rule
keys on the hazard and not the shape.
"""

from pathlib import Path

import pytest

from tools.simlint import (
    ALL_RULES,
    PROGRAM_RULES,
    RULES,
    lint_file,
    lint_paths,
    lint_project,
    lint_source,
    module_name_for,
)
from tools.simlint.output import DEFAULT_BASELINE, load_baseline

FIXTURES = Path(__file__).parent / "fixtures" / "simlint"
REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _fixture_module(path: Path) -> str:
    header = path.read_text().splitlines()[0]
    assert header.startswith("# simlint-fixture-module:"), path
    return header.split(":", 1)[1].strip()


#: (fixture file, the one rule it must trip, expected violation count).
FIXTURE_CASES = [
    ("sim001_wallclock.py", "SIM001", 3),
    ("sim002_randomness.py", "SIM002", 4),
    ("sim003_set_iteration.py", "SIM003", 4),
    ("sim004_slots.py", "SIM004", 2),
    ("sim005_legacy_wrapper.py", "SIM005", 3),
    ("sim006_subscriber.py", "SIM006", 3),
    ("sim007_units.py", "SIM007", 3),
    ("sim010_cache_write.py", "SIM010", 5),
    ("sim016_tenant_rng.py", "SIM016", 5),
]


@pytest.mark.parametrize("fname,rule,expected", FIXTURE_CASES)
def test_fixture_catches(fname, rule, expected):
    path = FIXTURES / fname
    violations = lint_file(str(path), module=_fixture_module(path))
    assert violations, f"{fname} produced no violations"
    assert {v.rule for v in violations} == {rule}
    assert len(violations) == expected
    for v in violations:
        assert v.render().startswith(str(path))
        assert v.line > 1  # never the header line


def test_every_rule_has_a_fixture():
    assert {rule for _, rule, _ in FIXTURE_CASES} == set(RULES)


def test_clean_fixture_is_clean():
    path = FIXTURES / "clean.py"
    assert lint_file(str(path), module=_fixture_module(path)) == []


def test_sim010_clean_fixture_is_clean():
    """The clean half of the SIM010 pair: the atomic helper shape passes."""
    path = FIXTURES / "sim010_cache_write_clean.py"
    assert lint_file(str(path), module=_fixture_module(path)) == []


def test_sim016_clean_fixture_is_clean():
    """The clean half of the SIM016 pair: per-tenant streams pass."""
    path = FIXTURES / "sim016_tenant_rng_clean.py"
    assert lint_file(str(path), module=_fixture_module(path)) == []


def test_sim016_scope_gating():
    src = "import random\nx = random.Random(7)\n"
    # A seeded module-level Random is fine outside the tenant tier ...
    assert lint_source(src, "repro.harness.runner") == []
    # ... but is one shared stream for every tenant inside it.
    assert [v.rule for v in lint_source(src, "repro.tenants.sweep")] == ["SIM016"]
    # Seeded, inside a function: the blessed per-tenant-stream shape.
    good = (
        "import random\n"
        "def rng(seed, tenant):\n"
        "    return random.Random(seed + tenant)\n"
    )
    assert lint_source(good, "repro.tenants.sweep") == []


def test_sim010_scope_gating():
    src = "def spill(path, blob):\n    path.write_bytes(blob)\n"
    # Direct writes are fine outside the cache package ...
    assert lint_source(src, "repro.harness.runner") == []
    # ... but bypass the atomic store helper inside it.
    assert [v.rule for v in lint_source(src, "repro.cache.store")] == ["SIM010"]
    # Read-mode opens never trip the rule.
    reads = 'def load(path):\n    return open(path, "rb").read()\n'
    assert lint_source(reads, "repro.cache.store") == []


def test_pragma_suppression():
    src = (
        "import time\n"
        "\n"
        "def f():\n"
        "    return time.time()  # simlint: disable=SIM001\n"
    )
    assert lint_source(src, "repro.sim.fake") == []
    assert lint_source(src.replace("=SIM001", "=all"), "repro.sim.fake") == []
    wrong = src.replace("=SIM001", "=SIM002")
    assert [v.rule for v in lint_source(wrong, "repro.sim.fake")] == ["SIM001"]


def test_scope_gating():
    src = "import time\nt = time.time()\n"
    # Harness code may read the host clock (progress reporting etc.).
    assert lint_source(src, "repro.harness.server") == []
    # Simulation code may not ...
    assert [v.rule for v in lint_source(src, "repro.sim.clock")] == ["SIM001"]
    # ... except the kernel, which owns the events/sec diagnostics.
    assert lint_source(src, "repro.sim.kernel") == []


def test_module_name_for():
    assert module_name_for("src/repro/mem/cache.py") == "repro.mem.cache"
    assert module_name_for("src/repro/sim/__init__.py") == "repro.sim"
    assert module_name_for("tools/analyze.py") == "analyze"


def test_src_repro_is_simlint_clean():
    """The tree guarantee behind `make analyze`: zero suppressions needed."""
    violations = lint_paths([str(REPO_SRC)])
    assert violations == [], "\n".join(v.render() for v in violations)


# ----------------------------------------------------------------------
# Whole-program rules (SIM011-SIM015, SIM017)
# ----------------------------------------------------------------------

#: (fixture package, the one rule it must trip, expected violation count).
PROGRAM_FIXTURE_CASES = [
    ("sim011_taint", "SIM011", 4),
    ("sim012_bus", "SIM012", 3),
    ("sim013_digest", "SIM013", 3),
    ("sim013_steering", "SIM013", 1),
    ("sim014_facade", "SIM014", 4),
    ("sim015_worker", "SIM015", 2),
    ("sim017_dead", "SIM017", 3),
]


@pytest.mark.parametrize("dirname,rule,expected", PROGRAM_FIXTURE_CASES)
def test_program_fixture_catches(dirname, rule, expected):
    violations = lint_project([str(FIXTURES / dirname)], cache_dir=None)
    assert violations, f"{dirname} produced no violations"
    assert {v.rule for v in violations} == {rule}
    assert len(violations) == expected
    for v in violations:
        assert v.line > 1  # never the fixture-module header line


@pytest.mark.parametrize("dirname", [d for d, _, _ in PROGRAM_FIXTURE_CASES])
def test_program_clean_fixture_is_clean(dirname):
    """Each bad package has a clean twin: the rule keys on the hazard."""
    violations = lint_project([str(FIXTURES / (dirname + "_clean"))], cache_dir=None)
    assert violations == [], "\n".join(v.render() for v in violations)


def test_every_program_rule_has_a_fixture():
    assert {rule for _, rule, _ in PROGRAM_FIXTURE_CASES} == set(PROGRAM_RULES)


def test_rule_tables_are_disjoint_and_complete():
    assert not (set(RULES) & set(PROGRAM_RULES))
    assert set(ALL_RULES) == set(RULES) | set(PROGRAM_RULES)


def test_sim011_cross_module_flow_names_the_route():
    """The wall-clock finding must implicate the helper module it rode in on."""
    violations = lint_project([str(FIXTURES / "sim011_taint")], cache_dir=None)
    wallclock = [v for v in violations if "wall-clock" in v.message]
    assert len(wallclock) == 1
    assert "total_ticks" in wallclock[0].message


def test_program_rules_respect_pragmas(tmp_path):
    src = (
        "import time\n"
        "\n"
        "def fingerprint():\n"
        "    return time.time()\n"
    )
    bad = tmp_path / "thing.py"
    bad.write_text(src)
    assert [v.rule for v in lint_project([str(bad)], cache_dir=None)] == ["SIM011"]
    bad.write_text(src.replace("time.time()", "time.time()  # simlint: disable=SIM011"))
    assert lint_project([str(bad)], cache_dir=None) == []


def test_src_repro_is_clean_under_full_battery():
    """The whole-program acceptance gate: SIM001-SIM017 with zero baseline.

    Both halves matter: the tree reports nothing, *and* the committed
    baseline is empty — no finding is being hidden by a suppression.
    """
    violations = lint_project([str(REPO_SRC)], cache_dir=None)
    assert violations == [], "\n".join(v.render() for v in violations)
    assert load_baseline(DEFAULT_BASELINE) == []
