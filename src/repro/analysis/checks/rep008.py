"""REP008 pipe-protocol-pairing: every dispatch send reaches a barrier recv.

The master↔worker protocols — the refine pool's ``level / gains / drop``
(``core/parallel_refine.py``) and the engine's superstep protocol, both
spoken over the one pipe group (``distributed/backend_mp.py``), the
latter also over framed sockets (``distributed/backend_rpc.py``) — are
strict request/reply state machines: the master sends one dispatch per
worker, then receives one barrier reply per worker, in order.  A dispatch
whose reply is never received desynchronizes the stream permanently: the
*next* barrier receives the stale reply and every message after it is
interpreted one slot off (the failure is silent and arbitrarily delayed).

The check models each protocol explicitly (module-wide rather than
per-function):

* every worker runs the one service loop,
  ``distributed/worker.py:serve(channel, handlers)``, so a protocol is the
  **handler table** passed at a ``serve(...)`` call site: each kind it
  lists is answered with exactly one reply, and ``exit`` ends the loop
  without one.  A file with no call site of its own — both engine
  masters — is checked against the table ``WorkerHost.serve`` passes;
* every function is then walked with a pending-dispatch set: a send of
  a reply-carrying kind adds a pending dispatch, a barrier ``recv``
  discharges all of them (barrier semantics: one recv loop drains one
  reply per dispatched worker).

Flagged: a function exit/``return`` with a dispatch outstanding, a
``raise`` while a dispatch is outstanding (the exception path skips the
barrier — discharge in a ``finally`` counts), an ``except`` handler that
swallows a failed barrier without reacting (no call, no re-raise) while
a dispatch is outstanding, and any ``close()`` reachable with an
un-received dispatch outstanding.

The runtime twin is the sanitizer's wire state machine
(``repro.analysis.sanitizers``, ``REPRO_SAN=1``).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable

from ..core import LINT_CHECKS, Check, FileContext, Finding

_SEND_ATTRS = {"send", "_send"}
_SEND_NAMES = {"send_obj"}
_RECV_ATTRS = {"recv", "_recv"}
_RECV_NAMES = {"recv_obj"}


def _call_kind(node: ast.AST) -> str | None:
    """'send' / 'recv' / 'close' if ``node`` is a protocol-relevant call."""
    if not isinstance(node, ast.Call):
        return None
    if isinstance(node.func, ast.Attribute):
        attr = node.func.attr
        if attr in _SEND_ATTRS or attr in _SEND_NAMES:
            return "send"
        if attr in _RECV_ATTRS or attr in _RECV_NAMES:
            return "recv"
        if attr == "close":
            return "close"
    elif isinstance(node.func, ast.Name):
        if node.func.id in _SEND_NAMES:
            return "send"
        if node.func.id in _RECV_NAMES:
            return "recv"
    return None


def _tuple_kind(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """Message kind of a tuple-literal payload (or an aliased local)."""
    if (
        isinstance(node, ast.Tuple)
        and node.elts
        and isinstance(node.elts[0], ast.Constant)
        and isinstance(node.elts[0].value, str)
    ):
        return node.elts[0].value
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    return None


def _send_msg_kind(call: ast.Call, aliases: dict[str, str]) -> str | None:
    """The dispatched kind for a send call, if its payload is visible."""
    for arg in call.args:
        kind = _tuple_kind(arg, aliases)
        if kind is not None:
            return kind
    return None


def _protocol_table(tree: ast.AST) -> dict[str, bool]:
    """kind -> carries-reply, read at the module's ``serve(...)`` call sites.

    ``serve(channel, handlers)`` answers every kind its handler table
    lists with exactly one reply and leaves on ``exit`` without one, so
    the table literal at the call site *is* the protocol.
    """
    table: dict[str, bool] = {}
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "serve"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Dict)
        ):
            continue
        for key in node.args[1].keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                table[key.value] = True
    if table:
        # ``exit`` asks for no reply; ``ok`` / ``error`` lead replies
        # (worker -> master), never a dispatch.
        table.update(exit=False, ok=False, error=False)
    return table


def engine_protocol_table() -> dict[str, bool]:
    """The engine protocol, read where every engine worker enters ``serve``.

    Raises when ``distributed/worker.py`` has no handler table left to
    read: scanning both masters against an empty table would turn the
    rule into a silent no-op.
    """
    path = Path(__file__).resolve().parents[2] / "distributed" / "worker.py"
    table = _protocol_table(ast.parse(path.read_text(encoding="utf-8")))
    if not table:
        raise RuntimeError(f"REP008: no serve(...) handler table found in {path}")
    return table


class _Pending:
    """One outstanding dispatch."""

    __slots__ = ("node", "kind")

    def __init__(self, node: ast.AST, kind: str):
        self.node = node
        self.kind = kind


class _MasterScan:
    """Pending-dispatch walk over one master-side function."""

    def __init__(self, check: "PipeProtocolPairing", ctx: FileContext,
                 fn: ast.FunctionDef | ast.AsyncFunctionDef,
                 table: dict[str, bool]):
        self.check = check
        self.ctx = ctx
        self.fn = fn
        self.table = table
        self.findings: list[Finding] = []
        # Local payload aliases: ``payload = ("step", ...)``.
        self.aliases: dict[str, str] = {}
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                kind = _tuple_kind(node.value, {})
                if kind is not None:
                    self.aliases[node.targets[0].id] = kind

    def run(self) -> None:
        pending = self._block(self.fn.body, [])
        for entry in pending:
            self._flag(entry.node, (
                f"dispatch send {entry.kind!r} has no matching barrier recv "
                "before the function exits — the worker's reply is left in "
                "the pipe and the next barrier reads it one slot off"
            ))

    # -- statement walk ------------------------------------------------
    def _block(self, stmts: list[ast.stmt], pending: list[_Pending]) -> list[_Pending]:
        for stmt in stmts:
            pending = self._stmt(stmt, pending)
        return pending

    def _stmt(self, stmt: ast.stmt, pending: list[_Pending]) -> list[_Pending]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return pending  # nested defs are scanned separately
        if isinstance(stmt, ast.Return):
            pending = self._events(stmt, pending)
            for entry in pending:
                self._flag(stmt, (
                    f"returns with dispatch {entry.kind!r} outstanding; every "
                    "dispatch send needs its barrier recv on all paths"
                ))
            return pending
        if isinstance(stmt, ast.Raise):
            for entry in pending:
                self._flag(stmt, (
                    f"exception path leaves dispatch {entry.kind!r} "
                    "outstanding — receive the barrier (or poison and close "
                    "the pool) in a finally before propagating"
                ))
            return pending
        if isinstance(stmt, ast.If):
            pending = self._events(stmt.test, pending)
            p_body = self._block(stmt.body, list(pending))
            p_else = self._block(stmt.orelse, list(pending))
            return p_body if len(p_body) >= len(p_else) else p_else
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            pending = self._events(stmt.iter, pending)
            pending = self._block(stmt.body, pending)
            return self._block(stmt.orelse, pending)
        if isinstance(stmt, ast.While):
            pending = self._events(stmt.test, pending)
            pending = self._block(stmt.body, pending)
            return self._block(stmt.orelse, pending)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                pending = self._events(item.context_expr, pending)
            return self._block(stmt.body, pending)
        if isinstance(stmt, ast.Try):
            entry_pending = list(pending)
            p_body = self._block(stmt.body, pending)
            for handler in stmt.handlers:
                # Exception edge: sends completed *before* the try landed;
                # anything inside the failing try is indeterminate, so the
                # handler is judged against the try-entry pending set.
                p_handler = self._block(handler.body, list(entry_pending))
                if p_handler and not self._handler_reacts(handler):
                    self._flag(handler, (
                        f"except handler swallows a failed barrier with "
                        f"dispatch {p_handler[0].kind!r} outstanding and does "
                        "nothing about it — the protocol is desynchronized "
                        "from here on"
                    ))
            p_body = self._block(stmt.orelse, p_body)
            return self._block(stmt.finalbody, p_body)
        return self._events(stmt, pending)

    @staticmethod
    def _handler_reacts(handler: ast.ExceptHandler) -> bool:
        """A handler that calls something or re-raises is handling the
        failure (marking the peer dead, poisoning the pool, ...); only a
        do-nothing swallow (``pass`` / bare ``continue``) is flagged."""
        return any(
            isinstance(node, (ast.Call, ast.Raise))
            for stmt in handler.body
            for node in ast.walk(stmt)
        )

    def _events(self, node: ast.AST, pending: list[_Pending]) -> list[_Pending]:
        calls = [
            sub for sub in ast.walk(node)
            if isinstance(sub, ast.Call) and _call_kind(sub) is not None
        ]
        calls.sort(key=lambda c: (c.lineno, c.col_offset))
        for call in calls:
            kind = _call_kind(call)
            if kind == "recv":
                pending = []
            elif kind == "send":
                msg_kind = _send_msg_kind(call, self.aliases)
                if msg_kind is None:
                    continue  # not a protocol dispatch (e.g. a port number)
                if self.table.get(msg_kind, True):
                    pending = pending + [_Pending(call, msg_kind)]
            elif kind == "close" and pending:
                self._flag(call, (
                    f"close() is reachable with dispatch "
                    f"{pending[0].kind!r} outstanding — receive the barrier "
                    "reply (or tear the whole pool down) before closing the "
                    "connection"
                ))
        return pending

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(self.ctx.finding(self.check, node, message))


@LINT_CHECKS.register(
    "REP008",
    aliases=("pipe-protocol-pairing",),
    doc="master/worker dispatch sends paired with barrier recvs on all paths",
)
class PipeProtocolPairing(Check):
    code = "REP008"
    name = "pipe-protocol-pairing"
    severity = "error"
    scope = (
        "core/parallel_refine.py",
        "distributed/backend_mp.py",
        "distributed/backend_rpc.py",
    )

    def run(self, ctx: FileContext) -> Iterable[Finding]:
        assert ctx.tree is not None
        table = _protocol_table(ctx.tree) or engine_protocol_table()
        findings: list[Finding] = []
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            scan = _MasterScan(self, ctx, fn, table)
            scan.run()
            findings.extend(scan.findings)
        return findings
