"""Cross-module contract rules SIM012-SIM015 and SIM017.

Each rule here needs the whole-program model (:class:`~tools.simlint.
engine.Project`): the hazards they catch are invisible to any single
file.

SIM012 — bus wiring: every event type constructed into ``.publish(...)``
(or pre-cached via ``.live(T)``) must have a typed ``.subscribe(T, ...)``
somewhere in the project, and every subscription must have a publisher.
A mismatch is dead observability wiring: a recorder that silently sees
nothing, or events paid for that nobody consumes.  Cross-module handler
signatures are also checked (the per-file SIM006 stops at module scope).

SIM013 — digest coverage: the result cache keys entries by walking the
whole ``Experiment`` (``cache/digest.py``) into a canonical tuple.  A
config field whose type that walk cannot canonicalize makes experiments
silently uncacheable — or worse, a field excluded from the walk would
let two *different* configs share a cache entry (a stale-hit bug).  Every
field of the config dataclasses must therefore have a provably
canonicalizable annotation, and every ``ExperimentSummary`` field must be
read by ``fingerprint()`` or be an explicitly allowlisted diagnostic.

SIM014 — facade drift: ``repro/__init__`` and ``repro.api`` must export
the same ``__all__``, every exported name must be bound in ``api.py``
and re-imported from it, every name must appear in ``docs/api.md``, and
the facade must carry no deprecated wrappers.

SIM015 — worker-path hygiene: functions reachable from a process-pool
entry point (initializer / mapped / applied) run in worker processes;
module globals they mutate are per-process copies.  The repo convention
is that such state is ``_worker*``-prefixed (documented process-local);
mutating anything else from a worker path is a shared-state illusion.
On-disk writes on concurrent paths must stage + ``os.replace`` in the
same function (the atomic idiom) so a reader can never observe a torn
file.

SIM017 — dead definitions: a public function, method or class under
``repro`` must be referenced somewhere other than its own ``def`` and
``tests/``, or be exported by ``repro.api``.  A reference is any name
token, or any identifier inside a string literal, in the linted files
and in the repo's ``tools/``, ``bench/`` and ``examples/`` trees.
Subpackage ``__init__`` imports and ``__all__`` lists do not count: a
re-export keeps nothing alive.  The rule runs only when ``repro.api`` is
among the linted files, since part of the package cannot see the
references the rest of it makes.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .engine import Project, SourceFile, dotted_chain, parse_source_file
from .rules import _FIXTURE_RE, Violation, iter_python_files

#: rule id -> one-line description (merged into ``--list-rules``).
PROGRAM_RULES: Dict[str, str] = {
    "SIM011": "nondeterministic taint reaches fingerprint-relevant state",
    "SIM012": "bus event published without a subscriber, or vice versa",
    "SIM013": "config/summary field invisible to the cache digest or fingerprint",
    "SIM014": "repro.api facade drift (exports, docs, deprecated wrappers)",
    "SIM015": "worker-path mutation of shared module state or non-atomic write",
    "SIM017": "public definition referenced only by tests and not exported",
}

# ----------------------------------------------------------------------
# SIM012: bus pub/sub contract
# ----------------------------------------------------------------------


def _event_class_of(
    project: Project, module: str, node: ast.AST
) -> Optional[Tuple[str, str]]:
    """Resolve an expression naming (or constructing) a project class."""
    if isinstance(node, ast.Call):
        node = node.func
    chain = dotted_chain(node)
    if chain is None:
        return None
    resolved = project.resolve(module, chain)
    if resolved is None:
        return None
    mod, symbol = resolved
    if symbol in project.modules[mod].classes:
        return (mod, symbol)
    return None


def check_bus_contracts(project: Project) -> List[Violation]:
    publishers: Dict[Tuple[str, str], List[Tuple[str, ast.AST]]] = {}
    subscribers: Dict[Tuple[str, str], List[Tuple[str, ast.AST]]] = {}
    violations: List[Violation] = []

    for module, facts in sorted(project.modules.items()):
        path = facts.file.path
        for node in ast.walk(facts.file.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            method = node.func.attr
            if method == "publish" and len(node.args) == 1:
                event = _event_class_of(project, module, node.args[0])
                if event is not None:
                    publishers.setdefault(event, []).append((path, node))
            elif method == "live" and len(node.args) == 1:
                # live(T) is the hot-path publish shape: the caller caches
                # the subscriber list and fans events into it directly.
                event = _event_class_of(project, module, node.args[0])
                if event is not None:
                    publishers.setdefault(event, []).append((path, node))
            elif method == "subscribe" and len(node.args) == 2:
                event = _event_class_of(project, module, node.args[0])
                if event is not None:
                    subscribers.setdefault(event, []).append((path, node))
                    violations.extend(
                        _check_cross_module_handler(
                            project, module, path, node, event
                        )
                    )

    for event, sites in sorted(publishers.items()):
        if event in subscribers:
            continue
        for path, node in sites:
            violations.append(
                Violation(
                    path,
                    node.lineno,
                    node.col_offset,
                    "SIM012",
                    f"{event[1]} is published here but no typed subscriber "
                    "exists anywhere in the project (dead obs wiring)",
                )
            )
    for event, sites in sorted(subscribers.items()):
        if event in publishers:
            continue
        for path, node in sites:
            violations.append(
                Violation(
                    path,
                    node.lineno,
                    node.col_offset,
                    "SIM012",
                    f"subscribed to {event[1]} but nothing in the project "
                    "publishes it (dead obs wiring)",
                )
            )
    return violations


def _check_cross_module_handler(
    project: Project,
    module: str,
    path: str,
    node: ast.Call,
    event: Tuple[str, str],
) -> List[Violation]:
    """Signature-check a handler imported from another module.

    Handlers defined in the subscribing module (including methods) are
    the per-file SIM006's job; this covers the one shape it cannot see.
    """
    handler = node.args[1]
    if not isinstance(handler, ast.Name):
        return []
    facts = project.modules[module]
    if handler.id in facts.functions:
        return []  # local: SIM006 territory
    found = project.find_function(module, handler.id)
    if found is None:
        return []
    mod, info = found
    if mod == module:
        return []
    fn = info.node
    params = list(fn.args.posonlyargs) + list(fn.args.args)
    if info.is_method and params and params[0].arg in ("self", "cls"):
        params = params[1:]
    required = len(params) - len(fn.args.defaults)
    if fn.args.vararg is None and required != 1:
        return [
            Violation(
                path,
                node.lineno,
                node.col_offset,
                "SIM012",
                f"handler {handler.id!r} (from {mod}) takes {required} "
                "required argument(s); bus handlers receive exactly one event",
            )
        ]
    if params:
        ann = params[0].annotation
        ann_name = None
        if isinstance(ann, (ast.Name, ast.Attribute)):
            ann_name = ann.attr if isinstance(ann, ast.Attribute) else ann.id
        elif isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            ann_name = ann.value.split(".")[-1].strip()
        if ann_name is not None and ann_name != event[1]:
            return [
                Violation(
                    path,
                    node.lineno,
                    node.col_offset,
                    "SIM012",
                    f"handler {handler.id!r} (from {mod}) annotates its "
                    f"event as {ann_name!r} but subscribes to {event[1]!r}",
                )
            ]
    return []


# ----------------------------------------------------------------------
# SIM013: digest / fingerprint coverage
# ----------------------------------------------------------------------

#: Config dataclasses whose every field must survive the canonical walk.
DIGEST_ROOT_CLASSES = ("Experiment", "ServerConfig")

#: ``(class name, field name)`` pairs deliberately excluded from digest
#: coverage.  Empty on purpose: an entry here is a documented decision
#: that two configs differing only in that field may share a cache
#: entry, and must carry a justification in the adding commit.
DIGEST_IRRELEVANT: frozenset = frozenset()

#: Annotation heads the canonical walk handles structurally.
_CANONICAL_PRIMITIVES = {"int", "float", "str", "bool", "bytes", "None"}
_CANONICAL_CONTAINERS = {"Optional", "List", "Dict", "Tuple", "Sequence", "Mapping", "list", "dict", "tuple"}
_UNCANONICAL_HEADS = {"Set", "FrozenSet", "set", "frozenset", "Callable", "Any"}

#: ``ExperimentSummary`` fields ``fingerprint()`` deliberately excludes:
#: the experiment itself (it *keys* the comparison), the wall-clock
#: diagnostics, and the sweep-runner bookkeeping mutated on retries.
FINGERPRINT_EXEMPT_FIELDS = frozenset(
    {"experiment", "wall_seconds", "events_per_second", "status", "attempts"}
)


def _annotation_problem(
    project: Project,
    module: str,
    node: Optional[ast.AST],
    seen: Set[Tuple[str, str]],
) -> Optional[str]:
    """Why this annotation defeats ``canonical()`` (None = provably fine)."""
    if node is None:
        return "missing annotation"
    if isinstance(node, ast.Constant):
        if node.value is None:
            return None
        if isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return f"unparsable string annotation {node.value!r}"
            return _annotation_problem(project, module, node, seen)
        return f"unsupported annotation {ast.dump(node)}"
    if isinstance(node, ast.Subscript):
        head = node.value
        head_name = head.attr if isinstance(head, ast.Attribute) else (
            head.id if isinstance(head, ast.Name) else None
        )
        if head_name in _UNCANONICAL_HEADS:
            return f"{head_name}[...] cannot be canonicalized (unordered or opaque)"
        if head_name in _CANONICAL_CONTAINERS:
            elts = (
                node.slice.elts
                if isinstance(node.slice, ast.Tuple)
                else [node.slice]
            )
            for elt in elts:
                if isinstance(elt, ast.Constant) and elt.value is Ellipsis:
                    continue
                problem = _annotation_problem(project, module, elt, seen)
                if problem is not None:
                    return problem
            return None
        return f"unrecognized container {head_name!r}"
    chain = dotted_chain(node)
    if chain is None:
        return f"unsupported annotation shape {type(node).__name__}"
    name = chain[-1]
    if name in _CANONICAL_PRIMITIVES:
        return None
    if name in _UNCANONICAL_HEADS:
        return f"{name} cannot be canonicalized (unordered or opaque)"
    resolved = project.resolve(module, chain)
    if resolved is None:
        return f"type {'.'.join(chain)!r} is not resolvable in the project"
    mod, symbol = resolved
    info = project.modules[mod].classes.get(symbol)
    if info is None:
        return f"type {'.'.join(chain)!r} is not a class the project defines"
    if not info.is_dataclass:
        return (
            f"{info.name} is not a dataclass; canonical() raises TypeError "
            "on it (experiment becomes uncacheable)"
        )
    return _dataclass_problem(project, mod, symbol, seen)


def _dataclass_problem(
    project: Project, mod: str, symbol: str, seen: Set[Tuple[str, str]]
) -> Optional[str]:
    """Why a dataclass, or a project dataclass derived from it, defeats
    ``canonical()``.

    A field typed by a base class may hold any subclass instance, and
    ``canonical()`` walks the instance's own fields, so every dataclass
    that names the class among its bases is walked as well.
    """
    key = (mod, symbol)
    if key in seen:
        return None  # already checked (or being checked) elsewhere
    seen.add(key)
    info = project.modules[mod].classes[symbol]
    for field_name, ann in info.fields:
        if (info.name, field_name) in DIGEST_IRRELEVANT:
            continue
        problem = _annotation_problem(project, mod, ann, seen)
        if problem is not None:
            return f"field {info.name}.{field_name}: {problem}"
    for sub_mod, facts in sorted(project.modules.items()):
        for sub in facts.classes.values():
            if (
                sub.is_dataclass
                and symbol in sub.base_names
                and project.resolve(sub_mod, [symbol]) == key
            ):
                problem = _dataclass_problem(project, sub_mod, sub.name, seen)
                if problem is not None:
                    return problem
    return None


def check_digest_coverage(project: Project) -> List[Violation]:
    violations: List[Violation] = []
    seen: Set[Tuple[str, str]] = set()
    for root in DIGEST_ROOT_CLASSES:
        for mod, info in project.classes_named(root):
            if not info.is_dataclass:
                continue
            seen.add((mod, root))
            path = project.modules[mod].file.path
            for field_name, ann in info.fields:
                if (root, field_name) in DIGEST_IRRELEVANT:
                    continue
                problem = _annotation_problem(project, mod, ann, seen)
                if problem is not None:
                    site = ann if ann is not None else info.node
                    violations.append(
                        Violation(
                            path,
                            site.lineno,
                            site.col_offset,
                            "SIM013",
                            f"{root}.{field_name} is invisible to the cache "
                            f"digest: {problem}",
                        )
                    )
    violations.extend(_check_fingerprint_coverage(project))
    return violations


def _check_fingerprint_coverage(project: Project) -> List[Violation]:
    """Every summary field participates in fingerprint() or is exempt."""
    violations: List[Violation] = []
    for mod, info in project.classes_named("ExperimentSummary"):
        if not info.is_dataclass:
            continue
        facts = project.modules[mod]
        fingerprint = facts.functions.get("ExperimentSummary.fingerprint")
        if fingerprint is None:
            violations.append(
                Violation(
                    facts.file.path,
                    info.node.lineno,
                    info.node.col_offset,
                    "SIM013",
                    "ExperimentSummary defines no fingerprint() method",
                )
            )
            continue
        read: Set[str] = set()
        for node in ast.walk(fingerprint.node):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                read.add(node.attr)
        for field_name, ann in info.fields:
            if field_name in FINGERPRINT_EXEMPT_FIELDS or field_name in read:
                continue
            site = ann if ann is not None else info.node
            violations.append(
                Violation(
                    facts.file.path,
                    site.lineno,
                    site.col_offset,
                    "SIM013",
                    f"ExperimentSummary.{field_name} is never read by "
                    "fingerprint(): two differing runs would compare equal; "
                    "fold it in or add it to FINGERPRINT_EXEMPT_FIELDS",
                )
            )
    return violations


# ----------------------------------------------------------------------
# SIM014: repro.api facade drift
# ----------------------------------------------------------------------

#: The facade pair: the package front door and the module it re-exports.
FACADE_INIT = "repro"
FACADE_API = "repro.api"


def check_api_facade(project: Project) -> List[Violation]:
    init = project.modules.get(FACADE_INIT)
    api = project.modules.get(FACADE_API)
    if init is None or api is None:
        return []  # facade not in the linted path set
    violations: List[Violation] = []

    def v(facts, node, message) -> None:
        site = node if node is not None else facts.file.tree
        line = getattr(site, "lineno", 1)
        col = getattr(site, "col_offset", 0)
        violations.append(Violation(facts.file.path, line, col, "SIM014", message))

    for facts in (init, api):
        if facts.all_names is None:
            v(facts, None, f"{facts.module} must declare a literal __all__")
    if init.all_names is None or api.all_names is None:
        return violations

    if init.all_names != api.all_names:
        only_init = sorted(set(init.all_names) - set(api.all_names))
        only_api = sorted(set(api.all_names) - set(init.all_names))
        detail = "; ".join(
            part
            for part in (
                f"only in repro/__init__: {', '.join(only_init)}" if only_init else "",
                f"only in repro.api: {', '.join(only_api)}" if only_api else "",
                "same names, different order" if not (only_init or only_api) else "",
            )
            if part
        )
        v(init, init.all_node, f"__all__ drift between repro and repro.api ({detail})")

    bound = set(api.imports) | set(api.functions) | set(api.classes)
    for name in api.all_names:
        if name not in bound:
            v(api, api.all_node, f"__all__ exports {name!r} but repro.api never binds it")

    for name in init.all_names:
        origin = init.imports.get(name)
        if origin is None or not origin.startswith(FACADE_API + "."):
            v(
                init,
                init.all_node,
                f"repro/__init__ must re-export {name!r} from repro.api "
                f"(currently {'unbound' if origin is None else origin!r})",
            )

    violations.extend(_check_deprecated_wrappers(api))
    violations.extend(_check_api_docs(api))
    return violations


def _check_deprecated_wrappers(api) -> List[Violation]:
    """The facade may not carry deprecated shims: stale names are removed
    (with a major bump), never kept as warning trampolines."""
    out: List[Violation] = []
    for qual, fn in sorted(api.functions.items()):
        for node in ast.walk(fn.node):
            deprecated = (
                isinstance(node, ast.Name) and node.id == "DeprecationWarning"
            ) or (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "warn"
            )
            if deprecated:
                out.append(
                    Violation(
                        api.file.path,
                        fn.node.lineno,
                        fn.node.col_offset,
                        "SIM014",
                        f"deprecated wrapper {qual!r} on the stable facade; "
                        "remove the name instead of shimming it",
                    )
                )
                break
    return out


def _check_api_docs(api) -> List[Violation]:
    """Every stable name must appear in docs/api.md (when present)."""
    path = Path(api.file.path).resolve()
    doc = None
    for ancestor in path.parents:
        candidate = ancestor / "docs" / "api.md"
        if candidate.is_file():
            doc = candidate
            break
    if doc is None or api.all_names is None:
        return []  # fixture projects carry no docs tree: nothing to check
    text = doc.read_text()
    missing = [name for name in api.all_names if name not in text]
    if not missing:
        return []
    site = api.all_node if api.all_node is not None else api.file.tree
    return [
        Violation(
            api.file.path,
            getattr(site, "lineno", 1),
            getattr(site, "col_offset", 0),
            "SIM014",
            "stable names missing from docs/api.md: " + ", ".join(missing),
        )
    ]


# ----------------------------------------------------------------------
# SIM015: worker-path concurrency hygiene
# ----------------------------------------------------------------------

#: Module globals with this prefix are the documented *process-local*
#: worker state convention (see ``repro.harness.runner``).
WORKER_LOCAL_PREFIX = "_worker"

#: Pool dispatch methods whose first argument is a worker entry point.
_POOL_DISPATCH = {"map", "imap", "imap_unordered", "starmap", "apply", "apply_async"}


def _module_globals(facts) -> Set[str]:
    names: Set[str] = set()
    for stmt in facts.file.tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    return names


def _worker_entries(project: Project) -> Tuple[Set[Tuple[str, str]], Set[str]]:
    """Functions handed to a process pool, and the modules doing the handing.

    The second set — modules that *own* pool machinery (create a Pool or
    dispatch work into one) — scopes the atomic-write facet: a module
    whose functions merely run inside workers does not write files
    concurrently unless it also orchestrates them.
    """
    entries: Set[Tuple[str, str]] = set()
    pool_modules: Set[str] = set()
    for module, facts in project.modules.items():
        for node in ast.walk(facts.file.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            terminal = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else None
            )
            if terminal == "Pool":
                pool_modules.add(module)
                for kw in node.keywords:
                    if kw.arg == "initializer" and isinstance(kw.value, ast.Name):
                        found = project.find_function(module, kw.value.id)
                        if found is not None:
                            entries.add((found[0], found[1].qualname))
            elif terminal in _POOL_DISPATCH and node.args:
                first = node.args[0]
                if isinstance(first, ast.Name):
                    found = project.find_function(module, first.id)
                    if found is not None:
                        entries.add((found[0], found[1].qualname))
                        pool_modules.add(module)
    return entries, pool_modules


def _worker_closure(project: Project) -> Tuple[Set[Tuple[str, str]], Set[str]]:
    graph = project.call_graph()
    entries, pool_modules = _worker_entries(project)
    closure = set(entries)
    frontier = list(closure)
    while frontier:
        node = frontier.pop()
        for callee in graph.get(node, ()):
            if callee not in closure:
                closure.add(callee)
                frontier.append(callee)
    return closure, pool_modules


def check_concurrency(project: Project) -> List[Violation]:
    violations: List[Violation] = []
    closure, pool_modules = _worker_closure(project)

    for module, qual in sorted(closure):
        facts = project.modules[module]
        fn = facts.functions[qual]
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Global):
                for name in node.names:
                    if not name.startswith(WORKER_LOCAL_PREFIX):
                        violations.append(
                            Violation(
                                facts.file.path,
                                node.lineno,
                                node.col_offset,
                                "SIM015",
                                f"worker-path function {qual!r} mutates module "
                                f"global {name!r}: workers hold per-process "
                                "copies, so this is a shared-state illusion; "
                                f"use the {WORKER_LOCAL_PREFIX}* convention or "
                                "return state to the parent",
                            )
                        )

    # Non-atomic writes on concurrent paths: any function in a module
    # that participates in pool machinery which opens a file for writing
    # must also swap it into place (os.replace / Path.replace) in that
    # same function, or be the atomic helper itself.
    for module in sorted(pool_modules):
        facts = project.modules[module]
        for qual, fn in sorted(facts.functions.items()):
            writes: List[ast.Call] = []
            swaps = False
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                terminal = (
                    func.attr
                    if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name) else None
                )
                if terminal == "open":
                    mode: Optional[ast.AST] = None
                    pos = 1 if isinstance(func, ast.Name) else 0
                    if len(node.args) > pos:
                        mode = node.args[pos]
                    for kw in node.keywords:
                        if kw.arg == "mode":
                            mode = kw.value
                    if (
                        isinstance(mode, ast.Constant)
                        and isinstance(mode.value, str)
                        and any(ch in mode.value for ch in "wax+")
                    ):
                        writes.append(node)
                elif terminal in ("write_bytes", "write_text"):
                    writes.append(node)
                elif terminal == "replace" or terminal == "_atomic_write_bytes":
                    swaps = True
            if writes and not swaps:
                for node in writes:
                    violations.append(
                        Violation(
                            facts.file.path,
                            node.lineno,
                            node.col_offset,
                            "SIM015",
                            f"{qual!r} writes a file on a concurrent path "
                            "without an atomic swap; stage to a temp name "
                            "and os.replace() it in the same function",
                        )
                    )
    return violations


# ----------------------------------------------------------------------
# SIM017: dead definitions
# ----------------------------------------------------------------------

#: Trees whose name tokens count as references whatever paths are linted.
REFERENCE_ROOTS = ("tools", "bench", "examples")
_REPO_ROOT = Path(__file__).resolve().parents[2]
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _is_test_file(file: SourceFile) -> bool:
    """Test code: a ``tests.*`` fixture module or a file under ``tests/``."""
    if file.module == "tests" or file.module.startswith("tests."):
        return True
    try:
        rel = Path(file.path).resolve().relative_to(_REPO_ROOT)
    except ValueError:
        return False
    return rel.parts[0] == "tests" and not _FIXTURE_RE.match(file.source)


def _reexport_lines(tree: ast.Module) -> Set[int]:
    """Lines of a package ``__init__``'s imports and ``__all__``."""
    lines: Set[int] = set()
    for stmt in tree.body:
        reexport = isinstance(stmt, (ast.Import, ast.ImportFrom)) or (
            isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
        )
        if reexport:
            lines.update(range(stmt.lineno, stmt.end_lineno + 1))
    return lines


def _referenced_names(source: str, skip_lines: Set[int]) -> Set[str]:
    """Every name token and string-literal identifier, minus def sites."""
    names: Set[str] = set()
    prev = ""
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.start[0] in skip_lines:
            continue
        if tok.type == tokenize.NAME:
            if prev not in ("def", "class"):
                names.add(tok.string)
            prev = tok.string
        elif tok.type == tokenize.STRING:
            names.update(_IDENT_RE.findall(tok.string))
    return names


def _file_references(file: SourceFile) -> Set[str]:
    skip = _reexport_lines(file.tree) if file.is_package else set()
    return _referenced_names(file.source, skip)


@lru_cache(maxsize=None)
def _root_references(root: Path) -> frozenset:
    """Reference names of the fixed sibling trees, read once per process."""
    dirs = [str(root / d) for d in REFERENCE_ROOTS if (root / d).is_dir()]
    names: Set[str] = set()
    for path in iter_python_files(dirs):
        names |= _file_references(parse_source_file(path))
    return frozenset(names)


def _api_exports(project: Project) -> Set[Tuple[str, str]]:
    names = project.modules[FACADE_API].all_names or []
    exports = {(FACADE_API, name) for name in names}
    for name in names:
        resolved = project.resolve(FACADE_API, [name])
        if resolved is not None:
            exports.add(resolved)
    return exports


def check_dead_definitions(project: Project) -> List[Violation]:
    if FACADE_API not in project.modules:
        return []  # a partial path set cannot see every reference
    referenced = set(_root_references(_REPO_ROOT))
    for file in project.files:
        if not _is_test_file(file):
            referenced |= _file_references(file)
    exported = _api_exports(project)
    violations: List[Violation] = []
    for module, facts in sorted(project.modules.items()):
        if module != "repro" and not module.startswith("repro."):
            continue
        defs = [(qual, fn.node) for qual, fn in facts.functions.items()]
        defs += [(name, info.node) for name, info in facts.classes.items()]
        for qual, node in defs:
            name = qual.rsplit(".", 1)[-1]
            if name.startswith("_") or name in referenced:
                continue
            if (module, qual) in exported:
                continue
            violations.append(
                Violation(
                    facts.file.path,
                    node.lineno,
                    node.col_offset,
                    "SIM017",
                    f"{qual!r} is referenced only at its definition or from "
                    "tests, and repro.api does not export it; delete it",
                )
            )
    return violations


def check_contracts(project: Project) -> List[Violation]:
    """Run SIM012-SIM015 and SIM017; SIM011 lives in :mod:`tools.simlint.flow`."""
    violations: List[Violation] = []
    violations.extend(check_bus_contracts(project))
    violations.extend(check_digest_coverage(project))
    violations.extend(check_api_facade(project))
    violations.extend(check_concurrency(project))
    violations.extend(check_dead_definitions(project))
    return violations
