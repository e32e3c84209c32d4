"""Whole-program analysis engine: the project model behind simlint 2.0.

The per-file rules (SIM001-SIM010, :mod:`tools.simlint.rules`) see one
AST at a time, which is exactly as far as syntax can go.  The hazards
that actually threaten the reproduction's determinism story cross file
boundaries: an unseeded value flowing *through* a helper into a
fingerprint, a bus event published in one module with no subscriber in
any other, a config field that reaches the simulator but not the cache
digest.  This module builds the shared project model those rules need:

* every file parsed **once** (optionally in parallel, ``jobs > 1``),
  with the parsed tree cached on disk keyed by source hash so repeated
  ``make analyze`` runs skip the parse entirely;
* a **module graph** (who imports what, with relative imports resolved
  against the package layout);
* a **symbol table** (functions, classes, dataclass fields, ``__all__``
  literals per module) with cross-module name resolution that follows
  imports and one-hop re-exports;
* a **call graph** over plain-name and ``self.method`` calls, which the
  taint pass (:mod:`tools.simlint.flow`) iterates to a fixpoint.

Everything downstream — the taint pass and the contract rules
(:mod:`tools.simlint.contracts`) — consumes a :class:`Project` and never
re-parses.
"""

from __future__ import annotations

import ast
import hashlib
import pickle
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .rules import _FIXTURE_RE, iter_python_files, module_name_for

#: Bumped whenever the pickled-AST layout or the fact extraction changes;
#: cache entries from another engine version are ignored, not trusted.
ENGINE_CACHE_VERSION = 1

#: Default on-disk parse-cache location (gitignored; CI restores it via
#: actions/cache keyed on the source hash of the tree).
DEFAULT_CACHE_DIR = ".simlint-cache"


def _cache_key(source: str) -> str:
    """Cache key for one file: content hash + engine + python version."""
    tag = f"{ENGINE_CACHE_VERSION}:{sys.version_info[0]}.{sys.version_info[1]}:"
    return hashlib.sha256((tag + source).encode("utf-8")).hexdigest()


def _load_cached_tree(cache_dir: Path, key: str) -> Optional[ast.Module]:
    try:
        with open(cache_dir / (key + ".ast"), "rb") as fh:
            tree = pickle.load(fh)
    except (OSError, Exception):
        return None
    return tree if isinstance(tree, ast.Module) else None


def _store_cached_tree(cache_dir: Path, key: str, tree: ast.Module) -> None:
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        staged = cache_dir / (key + ".tmp")
        with open(staged, "wb") as fh:
            pickle.dump(tree, fh, protocol=pickle.HIGHEST_PROTOCOL)
        staged.replace(cache_dir / (key + ".ast"))
    except OSError:
        pass  # cache is advisory; a read-only tree just parses every time


@dataclass
class SourceFile:
    """One parsed file: the unit the project model is built from."""

    path: str
    module: str
    source: str
    tree: ast.Module
    #: Whether the path is a package ``__init__`` (relative imports in a
    #: package resolve against the package itself, not its parent).
    is_package: bool


def _module_for_source(path: str, source: str) -> str:
    """Module name for ``path``, honoring the fixture-module header."""
    m = _FIXTURE_RE.match(source)
    if m:
        return m.group(1)
    return module_name_for(path)


def parse_source_file(path: str, cache_dir: Optional[Path] = None) -> SourceFile:
    """Parse one file (through the on-disk AST cache when available)."""
    source = Path(path).read_text()
    tree: Optional[ast.Module] = None
    key = ""
    if cache_dir is not None:
        key = _cache_key(source)
        tree = _load_cached_tree(cache_dir, key)
    if tree is None:
        tree = ast.parse(source, filename=path)
        if cache_dir is not None:
            _store_cached_tree(cache_dir, key, tree)
    return SourceFile(
        path=path,
        module=_module_for_source(path, source),
        source=source,
        tree=tree,
        is_package=Path(path).name == "__init__.py",
    )


def _parse_worker(args: Tuple[str, Optional[str]]) -> SourceFile:
    path, cache_dir = args
    return parse_source_file(path, Path(cache_dir) if cache_dir else None)


def parse_files(
    paths: Sequence[str],
    jobs: int = 1,
    cache_dir: Optional[Path] = None,
) -> List[SourceFile]:
    """Parse every ``.py`` file under ``paths``, once each, in path order.

    ``jobs > 1`` parses in worker processes (ASTs pickle cleanly); any
    host where process pools cannot be created degrades to serial with
    identical results.
    """
    files = list(iter_python_files(paths))
    if jobs > 1 and len(files) > 1:
        try:
            import multiprocessing

            with multiprocessing.get_context().Pool(min(jobs, len(files))) as pool:
                cache_arg = str(cache_dir) if cache_dir is not None else None
                return pool.map(
                    _parse_worker, [(path, cache_arg) for path in files]
                )
        except (OSError, PermissionError, ValueError, ImportError):
            pass  # sandbox without fork/semaphores: fall through to serial
    return [parse_source_file(path, cache_dir) for path in files]


# ----------------------------------------------------------------------
# per-module fact extraction
# ----------------------------------------------------------------------


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str  # "helper" or "Class.method"
    node: ast.AST  # FunctionDef / AsyncFunctionDef
    is_method: bool


@dataclass
class ClassInfo:
    """One class definition, with its dataclass shape when applicable."""

    name: str
    node: ast.ClassDef
    is_dataclass: bool
    #: ``(field name, annotation node)`` in declaration order (dataclass
    #: shape: annotated class-level assignments).
    fields: List[Tuple[str, Optional[ast.AST]]] = field(default_factory=list)
    base_names: List[str] = field(default_factory=list)


@dataclass
class ModuleFacts:
    """Everything the cross-module rules need to know about one module."""

    module: str
    file: SourceFile
    #: local name -> fully dotted origin ("repro.obs.events.LaneSeries"
    #: for from-imports of a name, "repro.obs.events" for module imports).
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: The ``__all__`` literal, when one is assigned at module level.
    all_names: Optional[List[str]] = None
    all_node: Optional[ast.AST] = None


def _resolve_relative(module: str, is_package: bool, level: int, target: str) -> str:
    """Absolute dotted name for a ``from ...x import`` statement."""
    if level == 0:
        return target
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    # level=1 is the current package; each extra level climbs one parent.
    for _ in range(level - 1):
        if parts:
            parts = parts[:-1]
    base = ".".join(parts)
    if not target:
        return base
    return f"{base}.{target}" if base else target


_DATACLASS_NAMES = {"dataclass"}


def _is_dataclass_def(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None
        )
        if name in _DATACLASS_NAMES:
            return True
    return False


def extract_facts(file: SourceFile) -> ModuleFacts:
    """One linear walk of a parsed file into its fact tables."""
    facts = ModuleFacts(module=file.module, file=file)
    for node in ast.walk(file.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                facts.imports[bound] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_relative(
                file.module, file.is_package, node.level, node.module or ""
            )
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                facts.imports[bound] = f"{base}.{alias.name}" if base else alias.name

    for stmt in file.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            facts.functions[stmt.name] = FunctionInfo(stmt.name, stmt, False)
        elif isinstance(stmt, ast.ClassDef):
            info = ClassInfo(
                name=stmt.name,
                node=stmt,
                is_dataclass=_is_dataclass_def(stmt),
                base_names=[
                    b.attr if isinstance(b, ast.Attribute) else b.id
                    for b in stmt.bases
                    if isinstance(b, (ast.Attribute, ast.Name))
                ],
            )
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{stmt.name}.{member.name}"
                    facts.functions[qual] = FunctionInfo(qual, member, True)
                elif isinstance(member, ast.AnnAssign) and isinstance(
                    member.target, ast.Name
                ):
                    info.fields.append((member.target.id, member.annotation))
            facts.classes[stmt.name] = info
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    names = _string_list(stmt.value)
                    if names is not None:
                        facts.all_names = names
                        facts.all_node = stmt
    return facts


def _string_list(node: ast.AST) -> Optional[List[str]]:
    if not isinstance(node, (ast.List, ast.Tuple)):
        return None
    out: List[str] = []
    for elt in node.elts:
        if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
            return None
        out.append(elt.value)
    return out


# ----------------------------------------------------------------------
# the project model
# ----------------------------------------------------------------------


def dotted_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]`` (root first), or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


class Project:
    """The whole-program model: modules, symbols, imports, call graph."""

    def __init__(self, files: Sequence[SourceFile]):
        self.files: List[SourceFile] = list(files)
        self.modules: Dict[str, ModuleFacts] = {}
        for file in self.files:
            self.modules[file.module] = extract_facts(file)
        self._call_graph: Optional[Dict[Tuple[str, str], Set[Tuple[str, str]]]] = None

    @classmethod
    def load(
        cls,
        paths: Sequence[str],
        jobs: int = 1,
        cache_dir: Optional[Path] = None,
    ) -> "Project":
        return cls(parse_files(paths, jobs=jobs, cache_dir=cache_dir))

    # -- name resolution ----------------------------------------------

    def resolve(self, module: str, parts: Sequence[str]) -> Optional[Tuple[str, str]]:
        """Resolve a (possibly dotted) name used in ``module``.

        Returns ``(defining module, symbol)`` — symbol may be ``""`` when
        the name resolves to a module itself — or ``None`` for names the
        project cannot see (stdlib, third-party, dynamic).  Follows
        imports and chains of re-exports up to a small bound.
        """
        if not parts:
            return None
        facts = self.modules.get(module)
        if facts is None:
            return None
        head, rest = parts[0], list(parts[1:])
        if head in facts.imports:
            dotted = facts.imports[head].split(".") + rest
        elif head in facts.functions or head in facts.classes:
            return (module, ".".join([head] + rest))
        else:
            return None
        return self._resolve_dotted(dotted)

    def _resolve_dotted(
        self, dotted: List[str], depth: int = 0
    ) -> Optional[Tuple[str, str]]:
        if depth > 8:
            return None
        # Longest known-module prefix wins; the remainder is the symbol.
        for cut in range(len(dotted), 0, -1):
            mod = ".".join(dotted[:cut])
            if mod in self.modules:
                rest = dotted[cut:]
                if not rest:
                    return (mod, "")
                facts = self.modules[mod]
                symbol = rest[0]
                if symbol in facts.functions or symbol in facts.classes:
                    return (mod, ".".join(rest))
                if symbol in facts.imports:  # a re-export: keep following
                    return self._resolve_dotted(
                        facts.imports[symbol].split(".") + rest[1:], depth + 1
                    )
                return (mod, ".".join(rest))
        return None

    def find_class(self, module: str, name: str) -> Optional[Tuple[str, ClassInfo]]:
        """The defining module and info for a class name used in ``module``."""
        resolved = self.resolve(module, [name])
        if resolved is None:
            return None
        mod, symbol = resolved
        info = self.modules[mod].classes.get(symbol)
        return (mod, info) if info is not None else None

    def find_function(
        self, module: str, name: str
    ) -> Optional[Tuple[str, FunctionInfo]]:
        """The defining module and info for a function name used in ``module``."""
        resolved = self.resolve(module, [name])
        if resolved is None:
            return None
        mod, symbol = resolved
        info = self.modules[mod].functions.get(symbol)
        return (mod, info) if info is not None else None

    def classes_named(self, name: str) -> List[Tuple[str, ClassInfo]]:
        """Every project class with this bare name (usually exactly one)."""
        return [
            (mod, facts.classes[name])
            for mod, facts in sorted(self.modules.items())
            if name in facts.classes
        ]

    # -- module graph --------------------------------------------------

    def module_graph(self) -> Dict[str, Set[str]]:
        """``importer -> {imported project modules}`` (project edges only)."""
        graph: Dict[str, Set[str]] = {}
        for module, facts in self.modules.items():
            edges: Set[str] = set()
            for dotted in facts.imports.values():
                resolved = self._resolve_dotted(dotted.split("."))
                if resolved is not None and resolved[0] != module:
                    edges.add(resolved[0])
            graph[module] = edges
        return graph

    # -- call graph ----------------------------------------------------

    def call_graph(self) -> Dict[Tuple[str, str], Set[Tuple[str, str]]]:
        """``(module, qualname) -> {called (module, qualname)}``.

        Best-effort static resolution: plain names (local or imported
        functions), ``module.func`` attribute calls through module
        imports, and ``self.method`` calls within a class.  Unresolvable
        calls (dynamic dispatch, stdlib) are simply absent.
        """
        if self._call_graph is not None:
            return self._call_graph
        graph: Dict[Tuple[str, str], Set[Tuple[str, str]]] = {}
        for module, facts in self.modules.items():
            for qual, fn in facts.functions.items():
                callees: Set[Tuple[str, str]] = set()
                cls_name = qual.split(".")[0] if "." in qual else None
                for node in ast.walk(fn.node):
                    if not isinstance(node, ast.Call):
                        continue
                    target = self.resolve_call(module, node, cls_name)
                    if target is not None:
                        callees.add(target)
                graph[(module, qual)] = callees
        self._call_graph = graph
        return graph

    def resolve_call(
        self, module: str, call: ast.Call, cls_name: Optional[str] = None
    ) -> Optional[Tuple[str, str]]:
        """Resolve one call site to a project ``(module, qualname)``."""
        facts = self.modules[module]
        func = call.func
        if isinstance(func, ast.Name):
            # A class constructor resolves to its __init__ if defined.
            found = self.find_function(module, func.id)
            if found is not None:
                return (found[0], found[1].qualname)
            cls = self.find_class(module, func.id)
            if cls is not None:
                mod, info = cls
                init = f"{info.name}.__init__"
                if init in self.modules[mod].functions:
                    return (mod, init)
            return None
        chain = dotted_chain(func)
        if chain is None:
            return None
        if chain[0] == "self" and cls_name is not None and len(chain) == 2:
            qual = f"{cls_name}.{chain[1]}"
            if qual in facts.functions:
                return (module, qual)
            return None
        resolved = self.resolve(module, chain)
        if resolved is None:
            return None
        mod, symbol = resolved
        if symbol and symbol in self.modules[mod].functions:
            return (mod, symbol)
        return None
