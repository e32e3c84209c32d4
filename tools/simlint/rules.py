"""AST rule engine for simlint.

One :class:`_Checker` pass per file.  Every rule is scoped by the file's
dotted module name (derived from its path, or passed explicitly by
tests), so fixture snippets can masquerade as any module they like.

Suppression: append ``# simlint: disable=SIM003`` (comma-separated rule
ids, or ``all``) to the offending line.  The clean-tree guarantee of
``make analyze`` is that ``src/repro`` needs *no* suppressions.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

#: rule id -> one-line description (shown by ``--list-rules``).
RULES: Dict[str, str] = {
    "SIM001": "wall-clock or host-time call in simulation code",
    "SIM002": "unseeded or module-global randomness in simulation code",
    "SIM003": "iteration over a set or id()-keyed mapping in simulation code",
    "SIM004": "hot-path class without __slots__ (or dataclass without slots=True)",
    "SIM005": "legacy memory-wrapper call; route through MemoryHierarchy.access()",
    "SIM006": "EventBus subscriber signature does not match the subscribed event type",
    "SIM007": "tick-vs-wall-time unit suffix mismatch (sim.units conventions)",
    "SIM010": "cache write outside the atomic store helper (repro.cache)",
    "SIM016": "shared or module-level RNG in tenant code; use seeded per-tenant streams",
}

#: Packages whose modules count as simulation code (SIM001/002/003/007).
SIM_SCOPE = ("repro.sim", "repro.mem", "repro.core", "repro.nic", "repro.cpu", "repro.pcie")

#: Packages whose modules count as tenant code (SIM016).  A tenant's
#: stochastic draws (traffic shapes, antagonist walks) must come from a
#: seeded per-tenant stream (``repro.tenants.tenant_rng``) so adding or
#: reordering tenants never perturbs another tenant's arrivals; shared
#: or module-level RNG state couples the tenants and breaks the
#: serial-vs-pool fingerprint guarantee.
TENANT_SCOPE = ("repro.tenants",)

#: Packages whose modules count as result-cache code (SIM010).  The
#: cache's correctness rests on readers never seeing a torn entry, so
#: every on-disk write must go through the one atomic helper (temp file
#: + same-directory ``os.replace``); any other write shape — ``open`` in
#: a write mode, ``Path.write_bytes``/``write_text``, a bare
#: ``os.replace`` — is a torn-write hazard.
CACHE_SCOPE = ("repro.cache",)

#: The one function allowed to write cache files (SIM010).
ATOMIC_WRITE_HELPER = "_atomic_write_bytes"

#: ``repro.sim.kernel`` owns the wall-seconds diagnostics (events/sec);
#: it is the one simulation module allowed to read the host clock.
WALLCLOCK_EXEMPT = {"repro.sim.kernel"}

#: Modules whose classes are on the per-transaction hot path (SIM004).
SLOTS_MODULES = {"repro.mem.line", "repro.mem.cache", "repro.sim.event", "repro.pcie.tlp"}

#: ``time`` module functions that read the host clock.
_TIME_FUNCS = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "clock",
}
#: ``datetime``/``date`` constructors that read the host clock.
_DATETIME_FUNCS = {"now", "utcnow", "today"}

#: Methods documented to return ``set`` objects (directory owner sets).
_SET_RETURNING_METHODS = {"owners"}
#: Attributes documented to hold ``set`` objects.
_SET_ATTRIBUTES = {"owners"}

#: The legacy per-kind wrappers on MemoryHierarchy (SIM005).  ``invalidate``
#: is only flagged when the receiver chain mentions a hierarchy, because the
#: name is too generic to flag on any object.
_LEGACY_WRAPPERS = {"cpu_access", "pcie_write", "pcie_read", "prefetch_fill"}

#: ``(module, wrapper name)`` pairs exempt from SIM005.  Deliberately
#: empty: every internal caller is routed through
#: ``MemoryHierarchy.access``; an entry here is a documented regression
#: that must carry a justification in the adding commit.
SIM005_ALLOWLIST: frozenset = frozenset()

#: ``sim.units`` helpers producing tick values vs converting ticks to
#: wall-time units (SIM007 suffix hygiene).
_TICK_PRODUCING = {
    "picoseconds", "nanoseconds", "microseconds", "milliseconds",
    "seconds", "cycles", "transfer_time",
}
_WALL_PRODUCING = {"to_nanoseconds", "to_microseconds", "to_milliseconds", "to_seconds"}
_WALL_SUFFIXES = ("_ns", "_us", "_ms")
_TICK_SUFFIXES = ("_ticks", "_tick")

_PRAGMA_RE = re.compile(r"#\s*simlint:\s*disable=([A-Za-z0-9_,\s]+)")


class Violation(NamedTuple):
    """One finding: where, which rule, and what is wrong."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def module_name_for(path: str) -> str:
    """Dotted module name for ``path``, anchored at the ``repro`` package.

    Files outside a ``repro`` tree lint under their bare stem, which
    keeps them out of the simulation-scope rules by default.
    """
    parts = list(Path(path).parts)
    name = Path(path).stem
    if "repro" in parts:
        idx = parts.index("repro")
        dotted = [p for p in parts[idx:-1]] + ([] if name == "__init__" else [name])
        return ".".join(dotted)
    return name


def _in_sim_scope(module: str) -> bool:
    return any(module == p or module.startswith(p + ".") for p in SIM_SCOPE)


def _in_tenant_scope(module: str) -> bool:
    return any(module == p or module.startswith(p + ".") for p in TENANT_SCOPE)


def _in_cache_scope(module: str) -> bool:
    return any(module == p or module.startswith(p + ".") for p in CACHE_SCOPE)


def _suppressions(source: str) -> Dict[int, Set[str]]:
    out: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _PRAGMA_RE.search(line)
        if m:
            rules = {r.strip().upper() for r in m.group(1).split(",") if r.strip()}
            out[lineno] = rules
    return out


def _terminal_name(node: ast.AST) -> Optional[str]:
    """Last identifier of a Name/Attribute chain (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _root_name(node: ast.AST) -> Optional[str]:
    """First identifier of a Name/Attribute chain (``a.b.c`` -> ``a``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _chain_names(node: ast.AST) -> List[str]:
    """All identifiers along a Name/Attribute chain."""
    names: List[str] = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.append(node.id)
    return names


class _Checker(ast.NodeVisitor):
    def __init__(self, module: str, path: str) -> None:
        self.module = module
        self.path = path
        self.violations: List[Violation] = []
        self.sim_scope = _in_sim_scope(module)
        self.tenant_scope = _in_tenant_scope(module)
        self.cache_scope = _in_cache_scope(module)
        self.slots_scope = module in SLOTS_MODULES
        self.wallclock_exempt = module in WALLCLOCK_EXEMPT
        #: >0 while inside any function body (lazy imports are fine).
        self._function_depth = 0
        # import tracking (filled during the walk; imports precede uses
        # in any module that parses, except pathological late imports,
        # which still resolve because visit order is source order).
        self.time_aliases: Set[str] = set()
        self.time_func_names: Set[str] = set()  # from time import perf_counter
        self.random_aliases: Set[str] = set()
        self.random_func_names: Set[str] = set()  # from random import random, ...
        self.random_class_names: Set[str] = set()  # from random import Random
        self.datetime_aliases: Set[str] = set()
        self.units_func_names: Dict[str, str] = {}  # from ..sim.units import cycles
        #: Names of the functions currently being visited (innermost last);
        #: SIM010 exempts code lexically inside the atomic write helper.
        self._function_name_stack: List[str] = []
        # per-function set-typed local names (simple forward dataflow).
        self._set_name_stack: List[Set[str]] = [set()]
        self._class_stack: List[str] = []
        # module-level function table for SIM006 handler resolution.
        self.functions: Dict[str, Tuple[ast.AST, bool]] = {}

    # -- plumbing ------------------------------------------------------

    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(
            Violation(self.path, node.lineno, node.col_offset, rule, message)
        )

    def _setish(self, node: ast.AST) -> bool:
        """True when ``node`` syntactically evaluates to a set."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            fname = _terminal_name(node.func)
            if isinstance(node.func, ast.Name) and fname in ("set", "frozenset"):
                return True
            if isinstance(node.func, ast.Attribute) and fname in _SET_RETURNING_METHODS:
                return True
            return False
        if isinstance(node, ast.Attribute) and node.attr in _SET_ATTRIBUTES:
            return True
        if isinstance(node, ast.Name):
            return any(node.id in names for names in self._set_name_stack)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._setish(node.left) or self._setish(node.right)
        return False

    # -- imports -------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "time":
                self.time_aliases.add(bound)
            elif alias.name in ("datetime",):
                self.datetime_aliases.add(bound)
            elif alias.name == "random":
                self.random_aliases.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        mod = node.module or ""
        for alias in node.names:
            bound = alias.asname or alias.name
            if mod == "time" and alias.name in _TIME_FUNCS:
                self.time_func_names.add(bound)
            elif mod == "datetime" and alias.name in ("datetime", "date"):
                self.datetime_aliases.add(bound)
            elif mod == "random":
                if alias.name == "Random":
                    self.random_class_names.add(bound)
                else:
                    self.random_func_names.add(bound)
            elif mod.endswith("units") and alias.name in (_TICK_PRODUCING | _WALL_PRODUCING):
                self.units_func_names[bound] = alias.name
        self.generic_visit(node)

    # -- SIM004: __slots__ on hot-path classes -------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        if self.slots_scope:
            self._check_slots(node)
        self.generic_visit(node)
        self._class_stack.pop()

    def _check_slots(self, node: ast.ClassDef) -> None:
        base_names = {_terminal_name(b) for b in node.bases}
        exempt_bases = {"NamedTuple", "Enum", "IntEnum", "Protocol", "TypedDict"}
        if base_names & exempt_bases:
            return
        if any(n and (n.endswith("Error") or n.endswith("Exception")) for n in base_names):
            return
        for deco in node.decorator_list:
            name = _terminal_name(deco.func if isinstance(deco, ast.Call) else deco)
            if name == "dataclass":
                if isinstance(deco, ast.Call):
                    for kw in deco.keywords:
                        if kw.arg == "slots" and isinstance(kw.value, ast.Constant):
                            if kw.value.value is True:
                                return
                self._emit(
                    node,
                    "SIM004",
                    f"hot-path dataclass {node.name!r} must pass slots=True",
                )
                return
        has_slots = any(
            isinstance(stmt, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
            )
            for stmt in node.body
        )
        if not has_slots:
            self._emit(
                node, "SIM004", f"hot-path class {node.name!r} must define __slots__"
            )

    # -- function scopes (set-name dataflow + SIM006 tables) -----------

    def _visit_function(self, node) -> None:
        is_method = bool(self._class_stack)
        self.functions.setdefault(node.name, (node, is_method))
        self._set_name_stack.append(set())
        self._function_name_stack.append(node.name)
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1
        self._function_name_stack.pop()
        self._set_name_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- assignments: set-name tracking + SIM007 -----------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            scope = self._set_name_stack[-1]
            if self._setish(node.value):
                scope.add(name)
            else:
                scope.discard(name)
        if self.sim_scope:
            for target in node.targets:
                self._check_unit_suffix(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None and self.sim_scope:
            self._check_unit_suffix(node.target, node.value)
        self.generic_visit(node)

    def _units_kind(self, value: ast.AST) -> Optional[str]:
        """'tick' / 'wall' when ``value`` is a recognized units call."""
        if not isinstance(value, ast.Call):
            return None
        func = value.func
        name = _terminal_name(func)
        if isinstance(func, ast.Attribute) and _root_name(func) == "units":
            if name in _TICK_PRODUCING:
                return "tick"
            if name in _WALL_PRODUCING:
                return "wall"
        if isinstance(func, ast.Name) and func.id in self.units_func_names:
            original = self.units_func_names[func.id]
            return "tick" if original in _TICK_PRODUCING else "wall"
        return None

    def _check_unit_suffix(self, target: ast.AST, value: ast.AST) -> None:
        name = _terminal_name(target)
        if name is None:
            return
        kind = self._units_kind(value)
        if kind == "tick" and name.endswith(_WALL_SUFFIXES):
            self._emit(
                value,
                "SIM007",
                f"{name!r} is wall-time-suffixed but assigned a tick value; "
                "name it *_ticks or convert with units.to_*()",
            )
        elif kind == "wall" and name.endswith(_TICK_SUFFIXES):
            self._emit(
                value,
                "SIM007",
                f"{name!r} is tick-suffixed but assigned a wall-time value; "
                "drop the conversion or rename",
            )

    def visit_keyword(self, node: ast.keyword) -> None:
        if self.sim_scope and node.arg is not None:
            kind = self._units_kind(node.value)
            if kind == "tick" and node.arg.endswith(_WALL_SUFFIXES):
                self._emit(
                    node.value,
                    "SIM007",
                    f"keyword {node.arg!r} is wall-time-suffixed but passed a tick value",
                )
            elif kind == "wall" and node.arg.endswith(_TICK_SUFFIXES):
                self._emit(
                    node.value,
                    "SIM007",
                    f"keyword {node.arg!r} is tick-suffixed but passed a wall-time value",
                )
        self.generic_visit(node)

    # -- SIM003: iteration over sets / id()-keyed mappings -------------

    def visit_For(self, node: ast.For) -> None:
        if self.sim_scope and self._setish(node.iter):
            self._emit(
                node.iter,
                "SIM003",
                "iteration over a set is order-nondeterministic across "
                "processes; iterate sorted(...) instead",
            )
        self.generic_visit(node)

    def _visit_comprehension_host(self, node) -> None:
        if self.sim_scope:
            for gen in node.generators:
                if self._setish(gen.iter):
                    self._emit(
                        gen.iter,
                        "SIM003",
                        "comprehension over a set is order-nondeterministic "
                        "across processes; iterate sorted(...) instead",
                    )
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension_host
    visit_SetComp = _visit_comprehension_host
    visit_DictComp = _visit_comprehension_host
    visit_GeneratorExp = _visit_comprehension_host

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self.sim_scope:
            sl = node.slice
            if (
                isinstance(sl, ast.Call)
                and isinstance(sl.func, ast.Name)
                and sl.func.id == "id"
            ):
                self._emit(
                    node,
                    "SIM003",
                    "id()-keyed mapping: key order and values vary across "
                    "processes; key by a stable field instead",
                )
        self.generic_visit(node)

    # -- calls: SIM001 / SIM002 / SIM005 / SIM006 ----------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = _terminal_name(func)

        if self.sim_scope and not self.wallclock_exempt:
            self._check_wallclock(node, func, name)
        if self.sim_scope:
            self._check_randomness(node, func, name)
        if self.tenant_scope:
            self._check_tenant_randomness(node, func, name)
        if self.cache_scope:
            self._check_cache_write(node, func, name)
        if self.module.startswith("repro.") and not self.module.startswith("repro.mem"):
            self._check_legacy_wrapper(node, func, name)
        if name == "subscribe" and isinstance(func, ast.Attribute) and len(node.args) == 2:
            self._check_subscriber(node)
        self.generic_visit(node)

    def _check_wallclock(self, node: ast.Call, func: ast.AST, name: Optional[str]) -> None:
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self.time_aliases
            and name in _TIME_FUNCS
        ):
            self._emit(
                node,
                "SIM001",
                f"time.{name}() reads the host clock; simulation code must "
                "use the simulator's virtual clock (sim.now)",
            )
            return
        if isinstance(func, ast.Name) and func.id in self.time_func_names:
            self._emit(
                node,
                "SIM001",
                f"{func.id}() reads the host clock; simulation code must "
                "use the simulator's virtual clock (sim.now)",
            )
            return
        if (
            isinstance(func, ast.Attribute)
            and name in _DATETIME_FUNCS
            and _root_name(func) in self.datetime_aliases
        ):
            self._emit(
                node,
                "SIM001",
                f"datetime .{name}() reads the host clock; simulation code "
                "must use the simulator's virtual clock (sim.now)",
            )

    def _check_randomness(self, node: ast.Call, func: ast.AST, name: Optional[str]) -> None:
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self.random_aliases
        ):
            if name == "Random":
                if not node.args and not node.keywords:
                    self._emit(
                        node,
                        "SIM002",
                        "random.Random() without a seed is nondeterministic; "
                        "pass an explicit seed",
                    )
            elif name == "SystemRandom":
                self._emit(node, "SIM002", "SystemRandom is inherently unseeded")
            else:
                self._emit(
                    node,
                    "SIM002",
                    f"module-global random.{name}() shares state across the "
                    "process; use an injected seeded random.Random instance",
                )
            return
        if isinstance(func, ast.Name):
            if func.id in self.random_func_names:
                self._emit(
                    node,
                    "SIM002",
                    f"module-global {func.id}() shares state across the "
                    "process; use an injected seeded random.Random instance",
                )
            elif func.id in self.random_class_names and not node.args and not node.keywords:
                self._emit(
                    node,
                    "SIM002",
                    "Random() without a seed is nondeterministic; pass an "
                    "explicit seed",
                )

    def _check_tenant_randomness(
        self, node: ast.Call, func: ast.AST, name: Optional[str]
    ) -> None:
        """SIM016: tenant code must derive randomness per tenant, per seed.

        Module-global ``random.*()`` calls (one stream coupling every
        tenant), unseeded ``Random()`` construction, and module-level
        ``Random(seed)`` (a shared instance every tenant would consume
        from) are all rejected.  The blessed shape is a seeded ``Random``
        built *inside* a function from the sweep seed mixed with the
        tenant id (``repro.tenants.tenant_rng``).
        """
        advice = (
            "tenant code must draw from a seeded per-tenant stream "
            "(see repro.tenants.tenant_rng)"
        )
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self.random_aliases
        ):
            if name == "Random":
                if not node.args and not node.keywords:
                    self._emit(
                        node, "SIM016", f"random.Random() without a seed; {advice}"
                    )
                elif self._function_depth == 0:
                    self._emit(
                        node,
                        "SIM016",
                        f"module-level random.Random(...) is one shared "
                        f"stream for every tenant; {advice}",
                    )
            elif name == "SystemRandom":
                self._emit(
                    node, "SIM016", f"SystemRandom is inherently unseeded; {advice}"
                )
            else:
                self._emit(
                    node,
                    "SIM016",
                    f"module-global random.{name}() couples every tenant's "
                    f"draws; {advice}",
                )
            return
        if isinstance(func, ast.Name):
            if func.id in self.random_func_names:
                self._emit(
                    node,
                    "SIM016",
                    f"module-global {func.id}() couples every tenant's "
                    f"draws; {advice}",
                )
            elif func.id in self.random_class_names:
                if not node.args and not node.keywords:
                    self._emit(
                        node, "SIM016", f"Random() without a seed; {advice}"
                    )
                elif self._function_depth == 0:
                    self._emit(
                        node,
                        "SIM016",
                        f"module-level Random(...) is one shared stream "
                        f"for every tenant; {advice}",
                    )

    def _check_cache_write(
        self, node: ast.Call, func: ast.AST, name: Optional[str]
    ) -> None:
        """SIM010: cache entries must be written via the atomic helper.

        Readers of the result cache validate entries at load time and
        treat any torn or partial file as corruption; the only write
        shape that can never be observed torn is a same-directory temp
        file renamed into place, which is exactly what
        ``repro.cache.store._atomic_write_bytes`` does.  Inside the
        cache package, every other write shape is flagged: ``open`` (or
        ``os.fdopen`` / ``Path.open``) in a write mode,
        ``Path.write_bytes`` / ``Path.write_text``, and bare
        ``os.replace`` / ``os.rename`` (a hand-rolled rename protocol).
        Read-mode opens and ``os.unlink`` (eviction) stay legal.
        """
        if ATOMIC_WRITE_HELPER in self._function_name_stack:
            return
        advice = (
            f"route cache writes through {ATOMIC_WRITE_HELPER} "
            "(temp file + same-directory os.replace)"
        )

        def mode_node(pos: int) -> Optional[ast.AST]:
            if len(node.args) > pos:
                return node.args[pos]
            for kw in node.keywords:
                if kw.arg == "mode":
                    return kw.value
            return None

        def write_mode(arg: Optional[ast.AST]) -> bool:
            return (
                isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
                and any(ch in arg.value for ch in "wax+")
            )

        if isinstance(func, ast.Name):
            if func.id == "open" and write_mode(mode_node(1)):
                self._emit(
                    node, "SIM010", f"open() in a write mode; {advice}"
                )
            return
        if not isinstance(func, ast.Attribute):
            return
        if name in ("write_bytes", "write_text"):
            self._emit(
                node,
                "SIM010",
                f".{name}() writes a cache file non-atomically; {advice}",
            )
        elif name == "open" and write_mode(mode_node(0)):
            self._emit(node, "SIM010", f".open() in a write mode; {advice}")
        elif name == "fdopen" and write_mode(mode_node(1)):
            self._emit(
                node, "SIM010", f"os.fdopen() in a write mode; {advice}"
            )
        elif (
            name in ("replace", "rename")
            and isinstance(func.value, ast.Name)
            and func.value.id == "os"
        ):
            self._emit(
                node,
                "SIM010",
                f"os.{name}() outside the helper is a hand-rolled "
                f"rename protocol; {advice}",
            )

    def _check_legacy_wrapper(self, node: ast.Call, func: ast.AST, name: Optional[str]) -> None:
        if not isinstance(func, ast.Attribute):
            return
        if (self.module, name) in SIM005_ALLOWLIST:
            return
        if name in _LEGACY_WRAPPERS:
            self._emit(
                node,
                "SIM005",
                f"legacy wrapper .{name}(); build a MemoryTransaction and "
                "call MemoryHierarchy.access() so typed subscribers see it",
            )
        elif name == "invalidate" and "hierarchy" in _chain_names(func.value):
            self._emit(
                node,
                "SIM005",
                "legacy wrapper .invalidate(); build an INVALIDATE "
                "MemoryTransaction and call MemoryHierarchy.access()",
            )

    def _check_subscriber(self, node: ast.Call) -> None:
        event_arg, handler_arg = node.args
        event_name = _terminal_name(event_arg)
        if event_name is None:
            return
        if isinstance(handler_arg, ast.Lambda):
            self._check_handler_params(node, handler_arg.args, False, event_name, "<lambda>")
            return
        handler_name = _terminal_name(handler_arg)
        if handler_name is None or handler_name not in self.functions:
            return  # dynamic / cross-module handler: not resolvable here
        fn, is_method = self.functions[handler_name]
        self._check_handler_params(node, fn.args, is_method, event_name, handler_name)

    def _check_handler_params(
        self,
        node: ast.Call,
        args: ast.arguments,
        is_method: bool,
        event_name: str,
        handler_name: str,
    ) -> None:
        params = list(args.args)
        if is_method and params and params[0].arg in ("self", "cls"):
            params = params[1:]
        required = len(params) - len(args.defaults)
        if args.vararg is None and required != 1:
            self._emit(
                node,
                "SIM006",
                f"handler {handler_name!r} takes {required} required "
                f"argument(s); bus handlers receive exactly one event",
            )
            return
        if params:
            ann = params[0].annotation
            ann_name = None
            if isinstance(ann, (ast.Name, ast.Attribute)):
                ann_name = _terminal_name(ann)
            elif isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                ann_name = ann.value.split(".")[-1].strip()
            if ann_name is not None and ann_name != event_name:
                self._emit(
                    node,
                    "SIM006",
                    f"handler {handler_name!r} annotates its event as "
                    f"{ann_name!r} but subscribes to {event_name!r}",
                )


def lint_source(
    source: str, module: str, path: str = "<string>"
) -> List[Violation]:
    """Lint one module's source under the rules for ``module``."""
    tree = ast.parse(source, filename=path)
    return lint_tree(tree, source, module, path)


def lint_tree(
    tree: ast.Module, source: str, module: str, path: str = "<string>"
) -> List[Violation]:
    """Lint an already-parsed module (the shared-AST entry point).

    The whole-program driver (:func:`tools.simlint.lint_project`) parses
    every file exactly once through the engine's cached parser and hands
    the same tree to the per-file rule pack here and to the
    cross-module passes — no rule re-parses.
    """
    checker = _Checker(module, path)
    # Pre-pass: record every function definition so subscribe() calls that
    # lexically precede their handler's def still resolve.
    for n in ast.walk(tree):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            checker.functions.setdefault(n.name, (n, _is_method(tree, n)))
    checker.visit(tree)
    suppressed = _suppressions(source)
    out = []
    for v in checker.violations:
        rules = suppressed.get(v.line, set())
        if "ALL" in rules or v.rule in rules:
            continue
        out.append(v)
    out.sort(key=lambda v: (v.line, v.col, v.rule))
    return out


def _is_method(tree: ast.Module, fn: ast.AST) -> bool:
    for n in ast.walk(tree):
        if isinstance(n, ast.ClassDef) and fn in n.body:
            return True
    return False


_FIXTURE_RE = re.compile(r"^#\s*simlint-fixture-module:\s*(\S+)")


def lint_file(path: str, module: Optional[str] = None) -> List[Violation]:
    """Lint one file; the module name is derived from the path by default.

    A leading ``# simlint-fixture-module: <dotted.name>`` comment
    overrides the derived name, so the self-test fixtures lint under the
    module they masquerade as from the CLI too.
    """
    source = Path(path).read_text()
    if module is None:
        m = _FIXTURE_RE.match(source)
        module = m.group(1) if m else module_name_for(path)
    return lint_source(source, module, path)


def iter_python_files(paths: Sequence[str]) -> Iterable[str]:
    for p in paths:
        path = Path(p)
        if path.is_dir():
            yield from (str(f) for f in sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            yield str(path)


def lint_paths(paths: Sequence[str]) -> List[Violation]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    violations: List[Violation] = []
    for file_path in iter_python_files(paths):
        violations.extend(lint_file(file_path))
    return violations
