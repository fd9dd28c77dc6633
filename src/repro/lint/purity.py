"""Instrumentation-guard proof (SL008) and shared-state inventory (SL009).

**SL008** makes the <2% disabled-overhead bar a *static* invariant.  The
hot-path contract (DESIGN.md) is: every ``METRICS``/``TRACE``/``SPANS``
hub call on the kernel/BLE/L2CAP/IP dispatch path sits behind its
``.enabled`` predicate, so a disabled subsystem costs one attribute load
and one branch.  ``--ab-check`` measures that; this rule proves it.  The
analysis accepts the idioms the codebase actually uses:

* a direct guard -- ``if TRACE.enabled: TRACE.emit(...)``,
* a hoisted local -- ``trace_on = TRACE.enabled`` ... ``if trace_on:``,
* compound tests -- ``if pdu.payload and METRICS.enabled:``, and
* *delegated* guards: a helper whose body emits unguarded is fine when
  every one of its hot-path call sites is itself guarded.  That proof is
  a greatest fixpoint over the call graph (assume every called helper is
  always-guarded, discard any with an unguarded hot call site, repeat),
  so guard delegation composes through chains of helpers.

**SL009** inventories the state that outlives one run: module-level
mutable globals (and mutable class attributes) referenced by functions
reachable from ``Simulator`` dispatch.  Experiments run back to back in
one process -- the sweep engine's in-process path (``max_workers=1``, or
no usable ``multiprocessing`` start method) and perfbench's seed cycle --
so such a global carries state from one run into the next, and a run's
result would then depend on what ran before it in that process.  Every
such global must be made immutable, moved into per-run state, or
sanctioned via ``# simlint: allow-shared-state -- <reason>``; the
suppressions double as the greppable inventory.  The full machine-
readable report (including per-class mutable *instance* state in
``repro.sim.kernel`` and ``repro.ble``, the dispatch path's own caches)
is emitted by ``python -m repro lint --shared-state-report``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.lint.graph import EDGE_REF, FunctionInfo, Project, terminal_name

#: The guarded instrumentation hubs, by conventional singleton name.
HUB_NAMES = ("METRICS", "SPANS", "TRACE")

#: Module prefixes that constitute the hot dispatch path for SL008.
HOT_PREFIXES = ("repro.sim.kernel", "repro.ble", "repro.l2cap", "repro.net")

#: Dispatch roots for SL009 reachability.
DISPATCH_MODULE = "repro.sim.kernel"

#: Constructors whose results are mutable containers.
_MUTABLE_CTORS = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter", "OrderedDict"}
)
_IMMUTABLE_CTORS = frozenset({"tuple", "frozenset", "frozenset", "bytes", "int", "float", "str"})


def is_hot_module(module: str) -> bool:
    """Hot-path scope: the named prefixes, plus anything outside ``repro``
    (fixtures and ad-hoc files lint with the rule active)."""
    if not module.startswith("repro"):
        return True
    return any(
        module == p or module.startswith(p + ".") for p in HOT_PREFIXES
    )


# ---------------------------------------------------------------------------
# SL008: guard analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HubTouch:
    """One call/store on an instrumentation hub inside a function."""

    hub: str
    line: int
    col: int
    #: hubs whose ``.enabled`` predicates dominate this site.
    guarded_by: FrozenSet[str]
    #: ``call`` or ``store`` (attribute assignment such as ``SPANS.now_hint``).
    kind: str


class _GuardWalker:
    """Collect hub touches and per-call-site guard sets for one function."""

    def __init__(self, fn: FunctionInfo) -> None:
        self.fn = fn
        self.touches: List[HubTouch] = []
        #: (line, col) of resolved call sites -> dominating guard set.
        self.call_guards: Dict[Tuple[int, int], FrozenSet[str]] = {}
        #: local alias name -> hubs its truthiness implies.
        self.aliases: Dict[str, FrozenSet[str]] = {}
        self._collect_aliases()
        node = fn.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        self._walk_body(node.body, frozenset())

    # -- aliases -------------------------------------------------------

    def _collect_aliases(self) -> None:
        node = self.fn.node
        for child in ast.walk(node):  # type: ignore[arg-type]
            if isinstance(child, ast.Assign) and len(child.targets) == 1:
                target = child.targets[0]
                if isinstance(target, ast.Name):
                    hubs = self._hubs_in_test(child.value, negated=False)
                    if hubs:
                        self.aliases[target.id] = hubs

    def _hubs_in_test(self, test: ast.expr, negated: bool) -> FrozenSet[str]:
        """Hubs whose enabled-ness the (possibly compound) test implies."""
        found: Set[str] = set()

        def scan(node: ast.expr, neg: bool) -> None:
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                scan(node.operand, not neg)
                return
            if neg:
                return
            if isinstance(node, ast.Attribute) and node.attr == "enabled":
                hub = terminal_name(node.value)
                if hub in HUB_NAMES:
                    found.add(hub)
                return
            if isinstance(node, ast.Name) and node.id in self.aliases:
                found.update(self.aliases[node.id])
                return
            if isinstance(node, ast.BoolOp):
                for value in node.values:
                    scan(value, neg)
                return
            if isinstance(node, ast.Compare):
                return  # `x.enabled == False` style: not a sanctioned guard

        scan(test, negated)
        return frozenset(found)

    # -- structural walk -----------------------------------------------

    def _walk_body(self, body: List[ast.stmt], guarded: FrozenSet[str]) -> None:
        for stmt in body:
            self._walk_stmt(stmt, guarded)
            # early-return guard: `if not HUB.enabled: return` dominates
            # everything after it in this block with HUB's negation.
            if (
                isinstance(stmt, ast.If)
                and not stmt.orelse
                and all(
                    isinstance(s, (ast.Return, ast.Raise, ast.Continue, ast.Break))
                    for s in stmt.body
                )
            ):
                guarded = guarded | self._hubs_in_test(stmt.test, negated=True)

    def _walk_stmt(self, stmt: ast.stmt, guarded: FrozenSet[str]) -> None:
        if isinstance(stmt, ast.If):
            pos = self._hubs_in_test(stmt.test, negated=False)
            neg = self._hubs_in_test(stmt.test, negated=True)
            self._walk_expr(stmt.test, guarded)
            self._walk_body(stmt.body, guarded | pos)
            self._walk_body(stmt.orelse, guarded | neg)
        elif isinstance(stmt, (ast.While,)):
            pos = self._hubs_in_test(stmt.test, negated=False)
            self._walk_expr(stmt.test, guarded)
            self._walk_body(stmt.body, guarded | pos)
            self._walk_body(stmt.orelse, guarded)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._walk_expr(stmt.iter, guarded)
            self._walk_body(stmt.body, guarded)
            self._walk_body(stmt.orelse, guarded)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._walk_body(stmt.body, guarded)
        elif isinstance(stmt, ast.ClassDef):
            self._walk_body(stmt.body, guarded)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._walk_expr(item.context_expr, guarded)
            self._walk_body(stmt.body, guarded)
        elif isinstance(stmt, ast.Try):
            self._walk_body(stmt.body, guarded)
            for handler in stmt.handlers:
                self._walk_body(handler.body, guarded)
            self._walk_body(stmt.orelse, guarded)
            self._walk_body(stmt.finalbody, guarded)
        elif isinstance(stmt, ast.Assign):
            self._note_store(stmt.targets, stmt, guarded)
            self._walk_expr(stmt.value, guarded)
        elif isinstance(stmt, ast.AugAssign):
            self._note_store([stmt.target], stmt, guarded)
            self._walk_expr(stmt.value, guarded)
        elif isinstance(stmt, ast.AnnAssign):
            self._note_store([stmt.target], stmt, guarded)
            if stmt.value is not None:
                self._walk_expr(stmt.value, guarded)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._walk_expr(stmt.value, guarded)
        elif isinstance(stmt, ast.Expr):
            self._walk_expr(stmt.value, guarded)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._walk_expr(child, guarded)
                elif isinstance(child, ast.stmt):
                    self._walk_stmt(child, guarded)

    def _note_store(
        self, targets: List[ast.expr], stmt: ast.stmt, guarded: FrozenSet[str]
    ) -> None:
        for target in targets:
            if isinstance(target, ast.Attribute):
                hub = terminal_name(target.value)
                if hub in HUB_NAMES:
                    self.touches.append(
                        HubTouch(
                            hub=hub,
                            line=stmt.lineno,
                            col=stmt.col_offset,
                            guarded_by=guarded,
                            kind="store",
                        )
                    )

    def _walk_expr(self, expr: ast.expr, guarded: FrozenSet[str]) -> None:
        if isinstance(expr, ast.BoolOp) and isinstance(expr.op, ast.And):
            acc = guarded
            for value in expr.values:
                self._walk_expr(value, acc)
                acc = acc | self._hubs_in_test(value, negated=False)
            return
        if isinstance(expr, ast.IfExp):
            pos = self._hubs_in_test(expr.test, negated=False)
            neg = self._hubs_in_test(expr.test, negated=True)
            self._walk_expr(expr.test, guarded)
            self._walk_expr(expr.body, guarded | pos)
            self._walk_expr(expr.orelse, guarded | neg)
            return
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Attribute):
                hub = terminal_name(func.value)
                if hub in HUB_NAMES and isinstance(func.value, ast.Name):
                    self.touches.append(
                        HubTouch(
                            hub=hub,
                            line=expr.lineno,
                            col=expr.col_offset,
                            guarded_by=guarded,
                            kind="call",
                        )
                    )
            self.call_guards[(expr.lineno, expr.col_offset)] = guarded
            self._walk_expr(func, guarded)
            for arg in expr.args:
                self._walk_expr(arg, guarded)
            for kw in expr.keywords:
                self._walk_expr(kw.value, guarded)
            return
        if isinstance(expr, (ast.FunctionDef,)):  # pragma: no cover - defensive
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._walk_expr(child, guarded)


@dataclass
class GuardAnalysis:
    """Project-wide SL008 facts."""

    project: Project
    walkers: Dict[str, _GuardWalker] = field(default_factory=dict)
    #: hub -> set of functions proven always-called-under-guard.
    always_guarded: Dict[str, Set[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for qualname in sorted(self.project.functions):
            self.walkers[qualname] = _GuardWalker(self.project.functions[qualname])
        for hub in HUB_NAMES:
            self.always_guarded[hub] = self._fixpoint_always_guarded(hub)

    def _call_sites_of(self, qualname: str) -> List[Tuple[FunctionInfo, int, int, str]]:
        out = []
        for caller_name in sorted(self.project.functions):
            caller = self.project.functions[caller_name]
            for site in caller.calls:
                if site.callee == qualname:
                    out.append((caller, site.line, site.col, site.kind))
        return out

    def _fixpoint_always_guarded(self, hub: str) -> Set[str]:
        # greatest fixpoint: start from "every called function is guarded",
        # peel off any with an unguarded hot-path call site whose caller is
        # not itself always-guarded.
        candidates: Set[str] = set()
        sites: Dict[str, List[Tuple[FunctionInfo, int, int, str]]] = {}
        for qualname in sorted(self.project.functions):
            found = self._call_sites_of(qualname)
            if found:
                sites[qualname] = found
                candidates.add(qualname)
        changed = True
        while changed:
            changed = False
            for qualname in sorted(candidates):
                for caller, line, col, kind in sites[qualname]:
                    if not is_hot_module(caller.module):
                        continue  # cold call sites don't hit the hot path
                    walker = self.walkers[caller.qualname]
                    guard = walker.call_guards.get((line, col), frozenset())
                    if kind == EDGE_REF:
                        # a callback registration: the function later runs
                        # in the dispatcher's (unguarded) context.
                        guard = frozenset()
                    if hub in guard:
                        continue
                    if caller.qualname in candidates and caller.qualname != qualname:
                        continue  # caller itself only ever runs under guard
                    candidates.discard(qualname)
                    changed = True
                    break
        return candidates

    def unguarded_touches(self, module: str) -> Iterator[Tuple[FunctionInfo, HubTouch, str]]:
        """Yield SL008 violations in ``module``: (function, touch, detail)."""
        if not is_hot_module(module):
            return
        for qualname in sorted(self.walkers):
            fn = self.project.functions[qualname]
            if fn.module != module:
                continue
            walker = self.walkers[qualname]
            for touch in walker.touches:
                if touch.hub in touch.guarded_by:
                    continue
                if qualname in self.always_guarded[touch.hub]:
                    continue
                detail = self._unguarded_reason(qualname, touch.hub)
                yield fn, touch, detail

    def _unguarded_reason(self, qualname: str, hub: str) -> str:
        sites = self._call_sites_of(qualname)
        if not sites:
            return (
                "and the function has no statically-known call sites"
                " (dispatch callbacks must guard internally)"
            )
        for caller, line, col, kind in sites:
            if not is_hot_module(caller.module):
                continue
            walker = self.walkers.get(caller.qualname)
            guard = (
                walker.call_guards.get((line, col), frozenset())
                if walker is not None and kind != EDGE_REF
                else frozenset()
            )
            if hub not in guard and caller.qualname not in self.always_guarded[hub]:
                return (
                    f"and it is called unguarded from"
                    f" {caller.qualname.split('.')[-1]}() at line {line}"
                )
        return "and not every call site could be proven guarded"


def compute_guards(project: Project) -> GuardAnalysis:
    return project.analysis("guards", lambda: GuardAnalysis(project))  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# SL009: shared mutable state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharedStateEntry:
    """One piece of statically-visible shared mutable state."""

    #: ``module-global`` | ``class-attr`` | ``instance-attr``.
    kind: str
    module: str
    qualname: str
    line: int
    #: best-effort description of the value (``dict literal``, ``Tracer()``).
    value_type: str
    #: reachable from Simulator dispatch (module-global/class-attr only).
    dispatch_reachable: bool = False
    #: sanctioned via an inline allow-shared-state suppression.
    sanctioned: bool = False
    reason: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "module": self.module,
            "qualname": self.qualname,
            "line": self.line,
            "value_type": self.value_type,
            "dispatch_reachable": self.dispatch_reachable,
            "sanctioned": self.sanctioned,
            "reason": self.reason,
        }


def _mutable_value_type(node: ast.expr) -> Optional[str]:
    """Describe ``node`` if it constructs a mutable object, else None."""
    if isinstance(node, (ast.List, ast.ListComp)):
        return "list literal"
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict literal"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set literal"
    if isinstance(node, ast.Call):
        name = terminal_name(node.func)
        if name in _MUTABLE_CTORS:
            return f"{name}()"
        if name in _IMMUTABLE_CTORS:
            return None
        if name and name[0].isupper():
            return f"{name}() instance"
    return None


class SharedStateAnalysis:
    """Project-wide SL009 facts and the shared-state report."""

    #: Instance-attribute inventory scope (the kernel and BLE dispatch path).
    INSTANCE_SCOPE = ("repro.sim.kernel", "repro.ble")

    def __init__(self, project: Project) -> None:
        self.project = project
        self.globals: List[SharedStateEntry] = []
        self.instance_attrs: List[SharedStateEntry] = []
        self._names_cache: Dict[str, Set[str]] = {}
        self._reachable_functions = self._compute_reachable()
        self._suppression_reasons = self._collect_suppression_reasons()
        self._collect_globals()
        self._collect_instance_attrs()

    # -- reachability ---------------------------------------------------

    def _compute_reachable(self) -> Set[str]:
        """Functions reachable from Simulator dispatch (call+partial+ref).

        When the linted set has no ``repro.sim.kernel``, the fallback
        depends on what *is* there: for ad-hoc/fixture files (no ``repro``
        modules at all) every function counts as reachable -- the local,
        conservative reading -- while a partial slice of the repro tree
        (a pre-commit run on changed files) stays silent rather than
        pretending it can see the dispatch path.
        """
        roots = [
            q
            for q, fn in self.project.functions.items()
            if fn.module == DISPATCH_MODULE
        ]
        if not roots:
            if any(m.startswith("repro") for m in self.project.modules):
                return set()
            return set(self.project.functions)
        seen: Set[str] = set()
        stack = sorted(roots)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            fn = self.project.functions.get(current)
            if fn is None:
                continue
            for site in fn.calls:
                if site.callee in self.project.functions and site.callee not in seen:
                    stack.append(site.callee)
                elif site.callee in self.project.classes:
                    init = self.project.resolve_method(site.callee, "__init__")
                    if init and init not in seen:
                        stack.append(init)
        return seen

    def _collect_suppression_reasons(self) -> Dict[str, Dict[int, str]]:
        from repro.lint.core import parse_suppressions
        from repro.lint.taint import _suppression_alias_map

        out: Dict[str, Dict[int, str]] = {}
        alias_map = _suppression_alias_map()
        for module in sorted(self.project.modules):
            ctx = self.project.modules[module].ctx
            sup = parse_suppressions(ctx, alias_map)
            out[module] = {
                line: sup.reasons.get(line, "")
                for line, codes in sup.by_line.items()
                if "SL009" in codes
            }
        return out

    # -- collection -----------------------------------------------------

    def _collect_globals(self) -> None:
        for module in sorted(self.project.modules):
            info = self.project.modules[module]
            for stmt in info.ctx.tree.body:
                self._note_global(module, stmt, class_prefix=None)
                if isinstance(stmt, ast.ClassDef):
                    for child in stmt.body:
                        self._note_global(module, child, class_prefix=stmt.name)
        self.globals.sort(key=lambda e: (e.module, e.line, e.qualname))

    def _note_global(
        self, module: str, stmt: ast.stmt, class_prefix: Optional[str]
    ) -> None:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            return
        value_type = _mutable_value_type(value)
        if value_type is None:
            return
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if target.id.startswith("__"):
                continue  # __all__ and friends: import-time only
            qual = (
                f"{module}.{class_prefix}.{target.id}"
                if class_prefix
                else f"{module}.{target.id}"
            )
            sanction = self._suppression_reasons.get(module, {})
            self.globals.append(
                SharedStateEntry(
                    kind="class-attr" if class_prefix else "module-global",
                    module=module,
                    qualname=qual,
                    line=stmt.lineno,
                    value_type=value_type,
                    dispatch_reachable=self._global_is_reachable(module, target.id),
                    sanctioned=stmt.lineno in sanction,
                    reason=sanction.get(stmt.lineno, ""),
                )
            )

    def _global_is_reachable(self, module: str, name: str) -> bool:
        """Is the global referenced by any dispatch-reachable function?"""
        fq = f"{module}.{name}"
        for qualname in self._reachable_functions:
            fn = self.project.functions.get(qualname)
            if fn is None:
                continue
            if fn.module == module and name in self._names_used(fn):
                return True
            minfo = self.project.modules.get(fn.module)
            if minfo is None:
                continue
            for local, target in minfo.imports.items():
                if target == fq and local in self._names_used(fn):
                    return True
        return False

    def _names_used(self, fn: FunctionInfo) -> Set[str]:
        cached = self._names_cache.get(fn.qualname)
        if cached is None:
            cached = {
                node.id
                for node in ast.walk(fn.node)
                if isinstance(node, ast.Name)
            }
            self._names_cache[fn.qualname] = cached
        return cached

    def _collect_instance_attrs(self) -> None:
        seen: Set[Tuple[str, str]] = set()
        for cls_name in sorted(self.project.classes):
            cinfo = self.project.classes[cls_name]
            if not cinfo.module.startswith(self.INSTANCE_SCOPE):
                continue
            for method_qual in sorted(cinfo.methods.values()):
                fn = self.project.functions.get(method_qual)
                if fn is None:
                    continue
                for node in ast.walk(fn.node):  # type: ignore[arg-type]
                    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                        continue
                    targets = (
                        node.targets if isinstance(node, ast.Assign) else [node.target]
                    )
                    value = node.value
                    if value is None:
                        continue
                    value_type = _mutable_value_type(value)
                    if value_type is None:
                        continue
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            key = (cls_name, target.attr)
                            if key in seen:
                                continue
                            seen.add(key)
                            self.instance_attrs.append(
                                SharedStateEntry(
                                    kind="instance-attr",
                                    module=cinfo.module,
                                    qualname=f"{cls_name}.{target.attr}",
                                    line=node.lineno,
                                    value_type=value_type,
                                    dispatch_reachable=method_qual
                                    in self._reachable_functions,
                                )
                            )
        self.instance_attrs.sort(key=lambda e: (e.module, e.qualname))

    # -- outputs --------------------------------------------------------

    def violations(self, module: str) -> Iterator[SharedStateEntry]:
        """Unsanctioned dispatch-reachable shared globals in ``module``."""
        for entry in self.globals:
            if (
                entry.module == module
                and entry.dispatch_reachable
                and not entry.sanctioned
            ):
                yield entry

    def report(self) -> dict:
        """The deterministic shared-state report document."""
        return {
            "schema": "repro.lint.shared-state/1",
            "dispatch_roots": DISPATCH_MODULE,
            "globals": [e.to_dict() for e in self.globals],
            "instance_state": [e.to_dict() for e in self.instance_attrs],
        }


def compute_shared_state(project: Project) -> SharedStateAnalysis:
    analysis = project.analysis("shared-state", lambda: SharedStateAnalysis(project))
    return analysis  # type: ignore[return-value]
