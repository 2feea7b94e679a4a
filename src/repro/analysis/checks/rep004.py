"""REP004 wire-pickle-safety: nothing that crosses the wire may be local.

``RpcBackend`` pickles worker state, message payloads, and vertex-program
references onto a socket (``distributed/wire.py``); the remote end is a
bare ``repro rpc-worker`` process that can only unpickle what it can
*import*.  Lambdas, classes defined inside functions, and closures pickle
by reference to their defining scope — they either fail outright at
``pickle.dumps`` or, worse, resolve to a different object on the worker.
Everything that crosses the wire must be module-level and importable.

Flagged (in ``distributed/`` and ``distributed_shp/``):

* a lambda stored on instance or class state (``self.fn = lambda ...``,
  class-attribute lambdas) — instances of these classes are exactly what
  gets pickled;
* a ``class`` defined inside a function — its instances cannot be
  unpickled on a worker;
* a lambda passed directly into a send (``ctx.send(dst, {"fn": lambda
  ...})``, or as an argument of ``send_obj``).

Not flagged: ``field(default_factory=lambda: ...)`` (the factory runs at
construction time and is not part of the pickled instance) and transient
local lambdas that never leave the driver process.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..core import LINT_CHECKS, Check, FileContext, Finding, dotted_name

_SEND_NAMES = {"send", "send_obj", "send_to_all", "broadcast"}


class _PickleVisitor(ast.NodeVisitor):
    def __init__(self, check: "WirePickleSafety", ctx: FileContext):
        self.check = check
        self.ctx = ctx
        self.findings: list[Finding] = []
        self._function_depth = 0
        self._class_depth = 0

    # -- nested classes ------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._function_depth > 0:
            self.findings.append(self.ctx.finding(
                self.check, node,
                f"class `{node.name}` is defined inside a function; its "
                "instances pickle by reference and cannot be unpickled on "
                "an rpc worker — move it to module level",
            ))
        self._class_depth += 1
        # class-attribute lambdas (pickled with every instance)
        for stmt in node.body:
            value = None
            if isinstance(stmt, ast.Assign):
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                value = stmt.value
            if isinstance(value, ast.Lambda):
                self.findings.append(self.ctx.finding(
                    self.check, value,
                    f"lambda stored as a class attribute of `{node.name}` "
                    "cannot be pickled to an rpc worker; use a module-level "
                    "function",
                ))
        self.generic_visit(node)
        self._class_depth -= 1

    def _visit_function(self, node: ast.AST) -> None:
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    visit_FunctionDef = _visit_function  # type: ignore[assignment]
    visit_AsyncFunctionDef = _visit_function  # type: ignore[assignment]

    # -- self.attr = lambda -------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    self.findings.append(self.ctx.finding(
                        self.check, node,
                        f"lambda stored on `self.{target.attr}` travels "
                        "with the pickled instance and cannot be unpickled "
                        "on an rpc worker; use a module-level function or "
                        "functools.partial over one",
                    ))
                    break
        self.generic_visit(node)

    # -- lambdas inside send payloads ---------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        attr = name.split(".")[-1] if name else None
        if attr in _SEND_NAMES:
            for arg in (*node.args, *(kw.value for kw in node.keywords)):
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Lambda):
                        self.findings.append(self.ctx.finding(
                            self.check, sub,
                            f"lambda inside a `{attr}(...)` payload cannot "
                            "be pickled across the wire; send data, not "
                            "code",
                        ))
        self.generic_visit(node)


@LINT_CHECKS.register(
    "REP004",
    aliases=("wire-pickle-safety",),
    doc="wire payloads must not capture lambdas/local classes",
)
class WirePickleSafety(Check):
    code = "REP004"
    name = "wire-pickle-safety"
    severity = "error"
    scope = ("distributed/", "distributed_shp/")

    def run(self, ctx: FileContext) -> Iterable[Finding]:
        assert ctx.tree is not None
        visitor = _PickleVisitor(self, ctx)
        visitor.visit(ctx.tree)
        return visitor.findings
