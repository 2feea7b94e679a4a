"""REP007 shared-write-disjointness: worker writes stay in their dispatch slice.

The parallel refiner's bitwise parity rests on one discipline
(``core/parallel_refine.py``, "deterministic ascending-block merge"):
every worker scatters gains only into the slice of the shared
``gain_cache`` addressed by *its own dispatched block* of the work
buffer.  There is no lock and no reduction — disjointness of the write
targets IS the merge.  A write through any index that is not derived
from the dispatched bounds (a whole-array assignment, a scalar poke, a
fancy index computed locally) can overlap another worker's slice and
corrupt gains silently, in a schedule-dependent way no parity grid
reliably catches.

This check runs a small dataflow over **worker-scope** functions — any
function that attaches a shared segment (``SharedArrayPack.attach``),
the request handlers nested in it, and everything they call in the same
module:

* the dicts returned by ``.arrays(writeable=True)`` are the mutable
  shared views; they are alias-tracked through locals, closure variables
  and attribute stores (like REP001 tracks ``numpy.random`` aliases);
* names are **dispatch-derived** when they are parameters of a
  worker-scope function — what the master handed this worker: a
  request's arguments as ``serve`` unpacks them into the handler, or the
  process arguments — or are computed from other derived names, e.g.
  ``ranks = views["work_buf"][lo:hi]``;
* flagged: whole-array writes (``arr[:] = ...``, ``arr[...] = ...``,
  rebinding a views entry), writes indexed by anything not
  dispatch-derived, and any *read* of a shared array that workers write
  in the same dispatch window through a non-derived index (its value
  would depend on sibling scheduling).

The runtime twin (``repro.analysis.sanitizers``, ``REPRO_SAN=1``)
checks the same invariant on live dispatch intervals.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..core import LINT_CHECKS, Check, FileContext, Finding, dotted_name


def _is_writeable_arrays_call(node: ast.AST) -> bool:
    """``<x>.arrays(..., writeable=True)`` with a literal ``True``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "arrays"
        and any(
            kw.arg == "writeable"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in node.keywords
        )
    )


def _own_nodes(fn: ast.AST):
    """``ast.walk`` over ``fn`` minus the bodies of functions nested in it
    (each is scanned as a worker-scope function of its own)."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _contains_attach(fn: ast.AST) -> bool:
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "attach"
        for node in ast.walk(fn)
    )


def _reached_names(fn: ast.AST) -> set[str]:
    """Functions ``fn`` calls by name, plus the ones nested in it."""
    return {
        node.func.id
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    } | {
        node.name
        for node in ast.walk(fn)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not fn
    }


class _WorkerScan:
    """Dataflow over one worker-scope function (statements in source order)."""

    def __init__(self, check: "SharedWriteDisjointness", ctx: FileContext,
                 fn: ast.FunctionDef | ast.AsyncFunctionDef, views_names: set[str]):
        self.check = check
        self.ctx = ctx
        self.fn = fn
        #: names (plain or dotted, e.g. "self.views") that hold a
        #: writeable shared-views dict anywhere in worker scope: handlers
        #: reach the views a sibling bound through a closure variable, and
        #: a later ``views = None`` (the drop idiom) must not untrack them.
        self.tracked: set[str] = set(views_names)
        #: local name -> shared-array key it aliases (``a = views["x"]``).
        self.arr_alias: dict[str, str] = {}
        #: names derived from the dispatched bounds: the parameters (a
        #: request's arguments, or the process arguments) to begin with.
        self.derived: set[str] = {
            arg.arg for arg in list(fn.args.args) + list(fn.args.kwonlyargs)
        }
        #: shared-array keys this function writes.
        self.written: set[str] = set()
        #: deferred read events: (node, key, index_is_derived)
        self.reads: list[tuple[ast.AST, str, bool]] = []
        self.findings: list[Finding] = []
        #: bases of store-target subscripts, skipped by the read scan.
        self._store_bases: set[int] = set()

    # -- expression classification ------------------------------------
    def _derived_expr(self, node: ast.AST) -> bool:
        return any(
            isinstance(sub, ast.Name) and sub.id in self.derived
            for sub in ast.walk(node)
        )

    def _views_entry(self, node: ast.AST) -> str | None:
        """Key if ``node`` is ``<tracked>["key"]`` with a constant key."""
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            base = dotted_name(node.value)
            if base is not None and base in self.tracked:
                return node.slice.value
        return None

    def _array_base(self, node: ast.AST) -> str | None:
        """Shared-array key if ``node`` denotes a shared array view."""
        key = self._views_entry(node)
        if key is not None:
            return key
        if isinstance(node, ast.Name) and node.id in self.arr_alias:
            return self.arr_alias[node.id]
        return None

    @staticmethod
    def _whole_slice(index: ast.AST) -> bool:
        if isinstance(index, ast.Slice):
            return index.lower is None and index.upper is None and index.step is None
        return isinstance(index, ast.Constant) and index.value is Ellipsis

    # -- statement walk ------------------------------------------------
    def run(self) -> None:
        self._walk(self.fn.body)
        # Expression-level read scan after the statement walk: by then the
        # aliases/derived sets reflect the whole function (single forward
        # pass; good enough for the handlers this rule targets).
        self._scan_reads(self.fn)

    def _walk(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    self._assign(target, stmt.value)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                self._assign(stmt.target, stmt.value)
            elif isinstance(stmt, ast.AugAssign):
                self._write_target(stmt.target, augmented=True)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                if self._derived_expr(stmt.iter):
                    for name in ast.walk(stmt.target):
                        if isinstance(name, ast.Name):
                            self.derived.add(name.id)
                self._walk(stmt.body)
                self._walk(stmt.orelse)
            elif isinstance(stmt, ast.While):
                self._walk(stmt.body)
                self._walk(stmt.orelse)
            elif isinstance(stmt, ast.If):
                self._walk(stmt.body)
                self._walk(stmt.orelse)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._walk(stmt.body)
            elif isinstance(stmt, ast.Try):
                self._walk(stmt.body)
                for handler in stmt.handlers:
                    self._walk(handler.body)
                self._walk(stmt.orelse)
                self._walk(stmt.finalbody)

    def _assign(self, target: ast.AST, value: ast.AST) -> None:
        if isinstance(target, ast.Subscript):
            self._write_target(target, augmented=False)
            return
        name = dotted_name(target)
        if name is None:
            if isinstance(target, (ast.Tuple, ast.List)):
                derived = self._derived_expr(value)
                for elt in target.elts:
                    sub = dotted_name(elt)
                    if sub is not None:
                        (self.derived.add if derived else self.derived.discard)(sub)
            return
        # Rebinding kills derivation; views and array aliases stay tracked
        # (conservative: a name that ever held shared memory is shared).
        self.derived.discard(name)
        src = dotted_name(value)
        if _is_writeable_arrays_call(value) or (src is not None and src in self.tracked):
            self.tracked.add(name)
            return
        key = self._views_entry(value)
        if key is not None:
            self.arr_alias[name] = key
        if self._derived_expr(value):
            self.derived.add(name)

    def _write_target(self, target: ast.Subscript, augmented: bool) -> None:
        if not isinstance(target, ast.Subscript):
            return
        # ``views["x"] = arr`` — rebinding a shared entry wholesale.
        key = self._views_entry(target)
        if key is not None:
            self._flag(target, (
                f"rebinds shared views entry {key!r} wholesale; workers must "
                "scatter into their dispatched slice, not replace the array"
            ))
            return
        key = self._array_base(target.value)
        if key is None:
            return
        self._store_bases.add(id(target.value))
        self.written.add(key)
        verb = "augmented write into" if augmented else "write into"
        if self._whole_slice(target.slice):
            self._flag(target, (
                f"whole-array {verb} shared {key!r}; workers must write only "
                "the slice addressed by their dispatched bounds"
            ))
        elif not self._derived_expr(target.slice):
            self._flag(target, (
                f"{verb} shared {key!r} indexed by "
                f"`{ast.unparse(target.slice)}`, which is not derived from "
                "the dispatched bounds — sibling blocks may overlap and the "
                "merge stops being deterministic"
            ))

    def _scan_reads(self, fn: ast.AST) -> None:
        parents: dict[int, ast.AST] = {}
        for node in _own_nodes(fn):
            for child in ast.iter_child_nodes(node):
                parents[id(child)] = node
        for node in _own_nodes(fn):
            if id(node) in self._store_bases:
                continue
            if not isinstance(node, (ast.Subscript, ast.Name)):
                continue
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            key = None
            if isinstance(node, ast.Subscript):
                key = self._views_entry(node)
            elif node.id in self.arr_alias:
                key = self.arr_alias[node.id]
            if key is None:
                continue
            parent = parents.get(id(node))
            if isinstance(parent, ast.Subscript) and parent.value is node:
                if isinstance(parent.ctx, ast.Store) or id(node) in self._store_bases:
                    continue
                self.reads.append((parent, key, self._derived_expr(parent.slice)))
            else:
                # Whole-array use (argument, attribute access, ...).
                self.reads.append((node, key, False))

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(self.ctx.finding(self.check, node, message))


@LINT_CHECKS.register(
    "REP007",
    aliases=("shared-write-disjointness",),
    doc="worker writes to shared arrays stay in the dispatched slice",
)
class SharedWriteDisjointness(Check):
    code = "REP007"
    name = "shared-write-disjointness"
    severity = "error"
    # Anywhere shared segments are attached: the parallel refiner, the mp
    # backend's workers, and the segment plumbing itself.
    scope = ("core/", "distributed/")

    def run(self, ctx: FileContext) -> Iterable[Finding]:
        assert ctx.tree is not None
        functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.setdefault(node.name, node)

        # Worker scope: functions that attach a segment, plus the
        # same-module functions they (transitively) call.
        entries = {name for name, fn in functions.items() if _contains_attach(fn)}
        worker_scope = set(entries)
        frontier = list(entries)
        while frontier:
            fn = functions[frontier.pop()]
            for callee in _reached_names(fn):
                if callee in functions and callee not in worker_scope:
                    worker_scope.add(callee)
                    frontier.append(callee)

        views_names = {
            name
            for fn_name in worker_scope
            for node in _own_nodes(functions[fn_name])
            if isinstance(node, ast.Assign) and _is_writeable_arrays_call(node.value)
            for target in node.targets
            if (name := dotted_name(target)) is not None
        }
        findings: list[Finding] = []
        scans: list[_WorkerScan] = []
        for name in sorted(worker_scope):
            scan = _WorkerScan(self, ctx, functions[name], views_names)
            scan.run()
            scans.append(scan)
            findings.extend(scan.findings)

        # Reads are judged against every worker's writes: an array any
        # worker writes during the dispatch window is unstable for all of
        # them except through dispatch-derived indices.
        written_anywhere = set().union(*(s.written for s in scans)) if scans else set()
        for scan in scans:
            for node, key, index_derived in scan.reads:
                if key in written_anywhere and not index_derived:
                    findings.append(ctx.finding(
                        self, node,
                        f"read of shared {key!r}, which workers write in this "
                        "dispatch window, through a non-dispatch-derived "
                        "index: the value observed depends on sibling "
                        "worker scheduling",
                    ))
        return findings
