"""reprolint framework: AST visitor core, findings, suppressions, driver.

The engine's cross-backend guarantees (``docs/architecture.md``, "parity
invariants") are *properties of the source*: no hidden RNG state, no
order-dependent float folds, dtype-exact wire schemas, picklable payloads,
no wall-clock in kernels.  Off-the-shelf linters cannot see any of that, so
this module provides a small static analysis framework the repo's own
checks plug into:

* :class:`Check` — the plugin base class.  A check declares its ``code``
  (``REPnnn``), severity, and path scope, and implements :meth:`Check.run`
  (per-file, over a parsed AST).  Checks register themselves on
  :data:`LINT_CHECKS`, the same lazy :class:`~repro.api.registry.Registry`
  mechanism every other pluggable piece of the pipeline uses, so ``repro
  lint --select``/``--ignore`` address them by code exactly like
  partitioners are addressed by name.
* :class:`Finding` — one diagnostic, locatable and JSON-serializable.
* suppressions — ``# reprolint: disable=REP002 -- <reason>`` on the flagged
  line, or ``# reprolint: file-disable=REP002 -- <reason>`` anywhere in the
  file.  A reason is mandatory; a suppression without one (or naming an
  unknown code, or suppressing nothing) is itself reported as ``REP000`` so
  waivers cannot rot silently.
* :func:`lint_paths` — the driver: walk files, parse once, run the selected
  checks, apply suppressions, return a :class:`LintReport` that renders as
  human text or JSON (the CI gate consumes the exit count).

See ``docs/development.md`` ("Invariants and static checks") for the rule
catalogue and how to add a check.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterable, Iterator

from ..api.registry import Registry

__all__ = [
    "LINT_CHECKS",
    "Severity",
    "Finding",
    "FileContext",
    "Check",
    "Suppression",
    "LintReport",
    "lint_paths",
    "dotted_name",
]

#: Check plugins, keyed by rule code; importing ``repro.analysis.checks``
#: populates it (each rule module registers its class where it is defined).
LINT_CHECKS = Registry("lint check", loader="repro.analysis.checks")

#: Severity ladder; today every rule is an "error" (the parity invariants
#: admit no advisory tier), "warning" exists for future soft checks.
SEVERITIES = ("error", "warning")
Severity = str

#: Framework-reserved code for suppression hygiene and unparsable files.
FRAMEWORK_CODE = "REP000"
FRAMEWORK_NAME = "lint-hygiene"


@dataclass(frozen=True)
class Finding:
    """One diagnostic: where, which rule, and why it matters."""

    code: str
    name: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    suppress_reason: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "name": self.name,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
            "suppress_reason": self.suppress_reason,
        }

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.code} [{self.severity}] {self.message}"
        )

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.code)


class FileContext:
    """One parsed source file handed to per-file checks.

    ``pkg_rel`` is the path inside the installed package (``core/swaps.py``
    for ``src/repro/core/swaps.py``) used for scope matching; it is ``None``
    for files outside a ``repro`` package tree (test fixtures), which every
    check treats as in scope so fixture snippets exercise rules without
    reconstructing the package layout.
    """

    def __init__(self, path: Path, display_path: str, source: str):
        self.path = path
        self.display_path = display_path
        self.source = source
        self.tree: ast.Module | None = None
        self.parse_error: SyntaxError | None = None
        try:
            self.tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:  # surfaced as a REP000 finding
            self.parse_error = exc
        self.pkg_rel = _package_relative(path)

    def finding(
        self,
        check: "Check",
        node: ast.AST | int,
        message: str,
    ) -> Finding:
        """Build a finding for ``node`` (an AST node or a 1-based line)."""
        if isinstance(node, int):
            line, col = node, 0
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
        return Finding(
            code=check.code,
            name=check.name,
            severity=check.severity,
            path=self.display_path,
            line=line,
            col=col,
            message=message,
        )


def _package_relative(path: Path) -> str | None:
    """Posix path below ``src/repro/`` (or ``repro/``), else ``None``."""
    parts = path.resolve().parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro" and i > 0 and parts[i - 1] == "src":
            return "/".join(parts[i + 1:])
    return None


class Check:
    """Base class for one lint rule.

    Class attributes declare identity and scope; subclasses registered on
    :data:`LINT_CHECKS` are instantiated once per :func:`lint_paths` call.

    ``scope`` is a tuple of package-relative prefixes (``"core/"``,
    ``"distributed/engine.py"``); empty means the whole package.  Files
    outside the package tree (``pkg_rel is None`` — fixtures) always match.
    """

    code: str = "REP999"
    name: str = "unnamed-check"
    severity: Severity = "error"
    scope: tuple[str, ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.pkg_rel is None:
            return True
        if not self.scope:
            return True
        return any(ctx.pkg_rel.startswith(prefix) for prefix in self.scope)

    def run(self, ctx: FileContext) -> Iterable[Finding]:
        """Per-file pass over ``ctx.tree``; yield findings."""
        return ()


# ----------------------------------------------------------------------
# AST helpers shared by the rule modules
# ----------------------------------------------------------------------

def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable|file-disable)\s*=\s*"
    r"(?P<codes>[A-Za-z0-9_,\s]*?)\s*(?:--\s*(?P<reason>.*\S))?\s*$"
)


@dataclass
class Suppression:
    """One parsed waiver (line- or file-scoped)."""

    codes: tuple[str, ...]
    reason: str | None
    line: int
    file_level: bool
    used: bool = False


def _comments(source: str) -> Iterator[tuple[int, str]]:
    """(line, text) for every real comment token in ``source``.

    Tokenizing (rather than scanning raw lines) keeps ``reprolint:``
    mentions inside string literals and docstrings — this module's own
    documentation, error messages quoting the syntax — from being
    mistaken for suppression comments.
    """
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                yield tok.start[0], tok.string
    except (tokenize.TokenError, IndentationError):
        return  # unparsable files are reported via ctx.parse_error


def parse_suppressions(
    ctx: FileContext, known_codes: set[str]
) -> tuple[list[Suppression], list[Finding]]:
    """Extract suppressions from comments; malformed ones become REP000."""
    suppressions: list[Suppression] = []
    problems: list[Finding] = []

    def hygiene(line: int, message: str) -> Finding:
        return Finding(
            code=FRAMEWORK_CODE,
            name=FRAMEWORK_NAME,
            severity="error",
            path=ctx.display_path,
            line=line,
            col=0,
            message=message,
        )

    for lineno, text in _comments(ctx.source):
        if "reprolint:" not in text:
            continue
        match = _SUPPRESS_RE.search(text)
        if match is None:
            problems.append(hygiene(
                lineno,
                "unparsable reprolint comment; expected "
                "'# reprolint: disable=REPnnn -- reason'",
            ))
            continue
        codes = tuple(
            code.strip().upper()
            for code in match.group("codes").split(",")
            if code.strip()
        )
        reason = match.group("reason")
        if not codes:
            problems.append(hygiene(
                lineno, "suppression lists no rule codes"
            ))
            continue
        unknown = [code for code in codes if code not in known_codes]
        if unknown:
            problems.append(hygiene(
                lineno,
                f"suppression names unknown rule {unknown[0]!r} "
                f"(known: {', '.join(sorted(known_codes))})",
            ))
        if not reason:
            problems.append(hygiene(
                lineno,
                f"suppression of {', '.join(codes)} carries no reason; "
                "append ' -- <why this is safe>'",
            ))
            continue  # reasonless waivers never take effect
        suppressions.append(Suppression(
            codes=codes,
            reason=reason,
            line=lineno,
            file_level=match.group("kind") == "file-disable",
        ))
    return suppressions, problems


def apply_suppressions(
    findings: list[Finding],
    suppressions: list[Suppression],
    ctx: FileContext,
    active_codes: set[str] | None = None,
) -> tuple[list[Finding], list[Finding]]:
    """Mark findings covered by a waiver; flag waivers that cover nothing.

    A waiver only counts as stale when every rule it names actually ran
    (``active_codes``) — ``--select REP006`` must not condemn the repo's
    REP002 waivers.
    """
    out: list[Finding] = []
    for finding in findings:
        waiver = None
        for sup in suppressions:
            if finding.code not in sup.codes:
                continue
            if sup.file_level or sup.line == finding.line:
                waiver = sup
                break
        if waiver is not None:
            waiver.used = True
            out.append(replace(
                finding, suppressed=True, suppress_reason=waiver.reason
            ))
        else:
            out.append(finding)
    unused = [
        Finding(
            code=FRAMEWORK_CODE,
            name=FRAMEWORK_NAME,
            severity="error",
            path=ctx.display_path,
            line=sup.line,
            col=0,
            message=(
                f"suppression of {', '.join(sup.codes)} matched no finding; "
                "delete it (stale waivers hide future regressions)"
            ),
        )
        for sup in suppressions
        if not sup.used
        and (active_codes is None or set(sup.codes) <= active_codes)
    ]
    return out, unused


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding]
    files_checked: int
    checks_run: tuple[str, ...]

    @property
    def unsuppressed(self) -> list[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def exit_code(self) -> int:
        # Exit status is the unsuppressed-finding count (0 = clean), capped
        # so it survives the shell's 8-bit exit-status truncation.
        return min(len(self.unsuppressed), 99)

    def to_json(self) -> dict[str, Any]:
        return {
            "version": 1,
            "tool": "reprolint",
            "checks": list(self.checks_run),
            "files_checked": self.files_checked,
            "findings": [f.to_dict() for f in self.findings],
            "summary": {
                "findings": len(self.findings),
                "unsuppressed": len(self.unsuppressed),
                "suppressed": len(self.suppressed),
            },
        }

    def render_human(self, show_suppressed: bool = False) -> str:
        lines = [f.render() for f in self.unsuppressed]
        if show_suppressed:
            lines.extend(
                f"{f.render()}  (suppressed: {f.suppress_reason})"
                for f in self.suppressed
            )
        lines.append(
            f"reprolint: {self.files_checked} files, "
            f"{len(self.unsuppressed)} findings "
            f"({len(self.suppressed)} suppressed with reasons)"
        )
        return "\n".join(lines)


def _select_checks(
    select: Iterable[str] | None, ignore: Iterable[str] | None
) -> list[Check]:
    codes = list(LINT_CHECKS.names())
    if select:
        wanted = {LINT_CHECKS.canonical(code) for code in select}
        codes = [code for code in codes if code in wanted]
    if ignore:
        dropped = {LINT_CHECKS.canonical(code) for code in ignore}
        codes = [code for code in codes if code not in dropped]
    return [LINT_CHECKS.get(code)() for code in codes]


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Yield the ``.py`` files under ``paths``, deterministically ordered."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def lint_paths(
    paths: Iterable[str | Path],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> LintReport:
    """Run the selected checks over ``paths`` and return the report."""
    checks = _select_checks(select, ignore)
    known_codes = set(LINT_CHECKS.names()) | {FRAMEWORK_CODE}
    rep000_ignored = bool(ignore) and any(
        code.strip().upper() == FRAMEWORK_CODE for code in ignore
    )

    contexts: list[FileContext] = []
    for path in iter_python_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise FileNotFoundError(f"cannot lint {path}: {exc}") from exc
        contexts.append(FileContext(path, str(path), source))

    findings: list[Finding] = []
    for ctx in contexts:
        file_findings: list[Finding] = []
        if ctx.parse_error is not None:
            file_findings.append(Finding(
                code=FRAMEWORK_CODE,
                name=FRAMEWORK_NAME,
                severity="error",
                path=ctx.display_path,
                line=ctx.parse_error.lineno or 1,
                col=(ctx.parse_error.offset or 1) - 1,
                message=f"file does not parse: {ctx.parse_error.msg}",
            ))
        else:
            for check in checks:
                if check.applies_to(ctx):
                    file_findings.extend(check.run(ctx))
        suppressions, hygiene = parse_suppressions(ctx, known_codes)
        file_findings, unused = apply_suppressions(
            file_findings, suppressions, ctx,
            active_codes={c.code for c in checks},
        )
        if not rep000_ignored:
            file_findings.extend(hygiene)
            file_findings.extend(unused)
        findings.extend(file_findings)

    findings.sort(key=Finding.sort_key)
    return LintReport(
        findings=findings,
        files_checked=len(contexts),
        checks_run=tuple(c.code for c in checks),
    )
