"""REP005 registry-cli-sync: registries load, resolve, and match the CLI.

The registries (``api/registry.py``) are *lazy*: a typo'd loader module or
a broken alias only explodes at first lookup, which for a rarely-used
entry means at a user's prompt, not in CI.  And ``cli.py`` bakes registry
names into argparse ``choices=...`` lists at import time — if a
partitioner is registered but the CLI was built from a stale list (or
vice versa), ``repro partition --algorithm X`` and ``JobSpec`` disagree
about what exists.

Unlike the per-file rules this is *program* analysis, not text analysis:
the check imports the registries, forces every lazy loader, resolves every
name and alias through the real lookup path, rebuilds the argparse tree
via ``build_parser()``, and compares each ``choices`` list against the
registry that should back it.

Findings are anchored to the flag's line in ``cli.py``.
"""

from __future__ import annotations

import argparse
from typing import Any, Iterable, Sequence

from ..core import LINT_CHECKS, Check, FileContext, Finding

#: (subcommand, flag) -> callable producing the expected choices list.
_EXPECTED_CHOICES: tuple[tuple[str, str, str], ...] = (
    ("partition", "--algorithm", "partitioners"),
    ("partition", "--objective", "objectives"),
    ("partition", "--backend", "backends+local"),
    ("compare", "--algorithms", "partitioners"),
    ("compare", "--objective", "objectives"),
)


def _find_option(
    parser: argparse.ArgumentParser, flag: str
) -> argparse.Action | None:
    for action in parser._actions:
        if flag in action.option_strings:
            return action
    return None


def _subparsers(
    parser: argparse.ArgumentParser,
) -> dict[str, argparse.ArgumentParser]:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def audit_registry_cli_sync(
    registries: Sequence[tuple[str, Any]] | None = None,
    parser: argparse.ArgumentParser | None = None,
) -> list[tuple[str | None, str]]:
    """Run the audit; return ``(anchor_flag, message)`` problems.

    All arguments default to the real package objects; tests inject
    fabricated registries/parsers to exercise each failure mode.
    ``anchor_flag`` is the CLI flag string a problem is best anchored to
    (``None`` for registry-internal problems).
    """
    problems: list[tuple[str | None, str]] = []

    if registries is None:
        from ...api.registry import BACKENDS, MATCHERS, OBJECTIVES, PARTITIONERS

        registries = [
            ("partitioners", PARTITIONERS),
            ("objectives", OBJECTIVES),
            ("backends", BACKENDS),
            ("matchers", MATCHERS),
        ]

    by_label: dict[str, Any] = {}
    for label, registry in registries:
        by_label[label] = registry
        try:
            names = registry.names()
        except Exception as exc:  # lazy loader failed
            problems.append((None, (
                f"{label} registry failed to load its entries: "
                f"{type(exc).__name__}: {exc}"
            )))
            continue
        for name in names:
            try:
                registry.get(name)
            except Exception as exc:
                problems.append((None, (
                    f"{label} entry {name!r} does not resolve via its "
                    f"lookup path: {type(exc).__name__}: {exc}"
                )))
        entries = getattr(registry, "_entries", {})
        for alias, target in getattr(registry, "_lookup", {}).items():
            if target not in entries:
                problems.append((None, (
                    f"{label} alias {alias!r} maps to unregistered entry "
                    f"{target!r}"
                )))

    if parser is None:
        from ... import cli

        try:
            parser = cli.build_parser()
        except Exception as exc:
            problems.append((None, (
                f"cli.build_parser() raised {type(exc).__name__}: {exc}"
            )))
            return problems

    def safe_names(label: str) -> list[str] | None:
        reg = by_label.get(label)
        if reg is None:
            return None
        try:
            return list(reg.names())
        except Exception:
            return None  # already reported as a load failure above

    def expected_for(kind: str) -> list[str] | None:
        if kind == "partitioners":
            return safe_names("partitioners")
        if kind == "objectives":
            return safe_names("objectives")
        if kind == "backends+local":
            names = safe_names("backends")
            return None if names is None else ["local", *names]
        return None

    subs = _subparsers(parser)
    for command, flag, kind in _EXPECTED_CHOICES:
        sub = subs.get(command)
        if sub is None:
            problems.append((None, f"CLI subcommand {command!r} is missing"))
            continue
        action = _find_option(sub, flag)
        if action is None:
            problems.append((flag, (
                f"`repro {command}` has no {flag} option to carry its "
                "registry choices"
            )))
            continue
        expected = expected_for(kind)
        if expected is None:
            continue  # registry already reported as broken above
        actual = list(action.choices or [])
        if actual != expected:
            problems.append((flag, (
                f"`repro {command} {flag}` choices {actual!r} do not match "
                f"the registry ({expected!r}); regenerate the choices from "
                "the registry instead of hand-listing names"
            )))
    return problems


@LINT_CHECKS.register(
    "REP005",
    aliases=("registry-cli-sync",),
    doc="registries resolve and CLI choices match them",
)
class RegistryCliSync(Check):
    code = "REP005"
    name = "registry-cli-sync"
    severity = "error"
    project_check = True

    def wants(self, contexts: list[FileContext]) -> bool:
        # Meaningful only when the real package is in the lint set.
        return any(
            ctx.pkg_rel == "cli.py" or (ctx.pkg_rel or "").startswith("api/")
            for ctx in contexts
        )

    def run_project(self, contexts: list[FileContext]) -> Iterable[Finding]:
        cli_ctx = next(
            (ctx for ctx in contexts if ctx.pkg_rel == "cli.py"), None
        )
        findings: list[Finding] = []
        for anchor, message in audit_registry_cli_sync():
            line = 1
            path = cli_ctx.display_path if cli_ctx else "cli.py"
            if cli_ctx is not None and anchor is not None:
                for lineno, text in enumerate(cli_ctx.lines, start=1):
                    if f'"{anchor}"' in text:
                        line = lineno
                        break
            findings.append(Finding(
                code=self.code,
                name=self.name,
                severity=self.severity,
                path=path,
                line=line,
                col=0,
                message=message,
            ))
        return findings
