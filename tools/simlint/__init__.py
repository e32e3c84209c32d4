"""simlint: repo-specific whole-program lint for the IDIO simulator.

Two layers (see ``docs/analysis.md``):

**Per-file rules** (syntactic, one AST at a time):

=======  ==============================================================
SIM001   no wall-clock / host-time calls in simulation code
SIM002   no unseeded or module-global randomness in simulation code
SIM003   no iteration over sets or ``id()``-keyed mappings
SIM004   ``__slots__`` required on hot-path classes
SIM005   memory traffic goes through ``MemoryHierarchy.access(txn)``
SIM006   EventBus subscriber signatures must match the event type
SIM007   tick-vs-wall-time suffix hygiene (``sim.units`` conventions)
SIM010   cache writes go through the atomic store helper
SIM016   tenant code draws from seeded per-tenant RNG streams
=======  ==============================================================

**Whole-program rules** (module graph + call graph + taint dataflow,
:mod:`tools.simlint.engine` / :mod:`.flow` / :mod:`.contracts`):

=======  ==============================================================
SIM011   nondeterministic taint must not reach fingerprint state
SIM012   bus publish/subscribe wiring must pair up, typed
SIM013   config/summary fields must be digest- and fingerprint-visible
SIM014   the ``repro.api`` facade must not drift
SIM015   worker paths keep module state process-local and writes atomic
SIM017   every public definition is referenced outside tests or exported
=======  ==============================================================

Use :func:`lint_project` programmatically, or run
``python -m tools.simlint src/repro`` (what ``make analyze`` does).
"""

from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .contracts import PROGRAM_RULES, check_contracts
from .engine import Project
from .flow import check_taint
from .rules import (
    RULES,
    Violation,
    _suppressions,
    lint_file,
    lint_paths,
    lint_source,
    lint_tree,
    module_name_for,
)

#: Every rule the full battery runs, per-file and whole-program alike.
ALL_RULES: Dict[str, str] = {**RULES, **PROGRAM_RULES}


def lint_project(
    paths: Sequence[str],
    jobs: int = 1,
    cache_dir: Optional[Path] = None,
    program: bool = True,
) -> List[Violation]:
    """Run the full rule battery over ``paths``, parsing each file once.

    Every file is parsed exactly once (optionally in parallel and
    through the on-disk AST cache); the same trees feed the per-file
    rule pack and, when ``program`` is true, the whole-program passes
    (taint flow + contract rules).  ``# simlint: disable=`` pragmas
    suppress both layers.
    """
    project = Project.load(paths, jobs=jobs, cache_dir=cache_dir)
    violations: List[Violation] = []
    for file in project.files:
        violations.extend(lint_tree(file.tree, file.source, file.module, file.path))
    if program:
        program_violations = check_taint(project) + check_contracts(project)
        by_path: Dict[str, Dict[int, set]] = {}
        for file in project.files:
            by_path[file.path] = _suppressions(file.source)
        for v in program_violations:
            rules_on_line = by_path.get(v.path, {}).get(v.line, set())
            if "ALL" in rules_on_line or v.rule in rules_on_line:
                continue
            violations.append(v)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations


__all__ = [
    "ALL_RULES",
    "PROGRAM_RULES",
    "Project",
    "RULES",
    "Violation",
    "lint_file",
    "lint_paths",
    "lint_project",
    "lint_source",
    "lint_tree",
    "module_name_for",
]
