#!/usr/bin/env python3
"""Fail on doc rot: broken intra-repo links, and example jobs that no
longer parse.

Scans markdown files for inline links/images ``[text](target)`` and checks
every relative target against the working tree:

* ``docs/foo.md`` / ``../examples/x.toml`` — the file must exist, resolved
  against the *linking* file's directory.
* ``file.md#fragment`` — the file must exist *and* contain a heading whose
  GitHub-style anchor slug matches ``fragment``.
* ``#fragment`` — checked against the current file's own headings.

Also validates that every ``examples/jobs/*.toml`` parses as a
:class:`repro.api.JobSpec` — a spec file the runner rejects is doc rot
exactly like a dead link, just harder to spot in review — and that the
README's job-spec key table is the one :func:`render_spec_table` renders
from the option declarations (``--spec-table`` prints it for pasting).

External schemes (``http://``, ``https://``, ``mailto:``) are skipped —
this is an offline, deterministic check.  Exit status is the number of
problems (0 = clean), so CI can run it directly:

    python tools/check_docs_links.py

Used by ``tests/test_docs_links.py`` and the CI ``docs`` step.
"""
from __future__ import annotations

import json
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Inline markdown links and images: [text](target) — tolerates one level of
# nested brackets in the text (e.g. badges), stops the target at ')' or space.
LINK_RE = re.compile(r"!?\[(?:[^\[\]]|\[[^\]]*\])*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
FENCE_RE = re.compile(r"^(```|~~~).*?^\1\s*$", re.MULTILINE | re.DOTALL)
EXTERNAL = ("http://", "https://", "mailto:", "ftp://")
SPEC_TABLE_RE = re.compile(r"<!-- spec-table:begin -->\n(.*?)\n<!-- spec-table:end -->", re.DOTALL)


def _slugify(heading: str) -> str:
    """GitHub's markdown heading → anchor id transformation."""
    text = re.sub(r"[*_`]", "", heading.strip())
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # unwrap links
    text = text.lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(md_path: Path) -> set[str]:
    body = FENCE_RE.sub("", md_path.read_text(encoding="utf-8"))
    slugs: dict[str, int] = {}
    out = set()
    for match in HEADING_RE.finditer(body):
        slug = _slugify(match.group(1))
        n = slugs.get(slug, 0)
        slugs[slug] = n + 1
        out.add(slug if n == 0 else f"{slug}-{n}")
    return out


def iter_markdown_files(repo: Path = REPO) -> list[Path]:
    files = [repo / "README.md"]
    files.extend(sorted((repo / "docs").rglob("*.md")))
    return [f for f in files if f.is_file()]


def check_file(md_path: Path, repo: Path = REPO) -> list[str]:
    """Return human-readable problems for every broken link in *md_path*."""
    body = FENCE_RE.sub("", md_path.read_text(encoding="utf-8"))
    problems = []
    rel = md_path.relative_to(repo)
    for match in LINK_RE.finditer(body):
        target = match.group(1)
        if target.startswith(EXTERNAL):
            continue
        path_part, _, fragment = target.partition("#")
        if not path_part:  # same-file anchor
            dest = md_path
        else:
            dest = (md_path.parent / path_part).resolve()
            if not dest.exists():
                problems.append(f"{rel}: broken link -> {target}")
                continue
            if not dest.is_relative_to(repo):
                problems.append(f"{rel}: link escapes the repo -> {target}")
                continue
        if fragment and dest.suffix == ".md" and fragment not in _anchors(dest):
            problems.append(f"{rel}: missing anchor -> {target}")
    return problems


def _import_repro(repo: Path = REPO) -> None:
    src = repo / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def render_spec_table() -> str:
    """The README's reference table of every job-spec key, from the
    declarations (one row per ``option(...)``): the spec tree in
    ``repro/api/spec.py``, and under ``algorithm.options`` one row per field
    of the default algorithm's declared config (``SHPConfig``)."""
    _import_repro()
    import dataclasses

    from repro.api import PARTITIONERS, AlgorithmSpec, JobSpec
    from repro.api.spec import OWNED_OPTIONS, iter_options, option_choices, option_range

    def row(key: str, f: dataclasses.Field, allowed: str = "", flags: bool = True) -> str:
        default = f.default_factory() if callable(f.default_factory) else f.default
        choices = option_choices(f)
        cells = [
            f"`{key}`",
            f"`{f.type}`".replace("|", "\\|"),
            "—" if default is None else f"`{json.dumps(default)}`",
            allowed or option_range(f)
            or (", ".join(f"`{name}`" for name in choices) if choices else ""),
            ", ".join(f"`{flag}`" for flag in f.metadata.get("flags", ()) if flags),
        ]
        return "| " + " | ".join(cells) + " |"

    rows = ["| Key | Type | Default | Range / choices | Flag(s) |", "|---|---|---|---|---|"]
    for key, f, _ in iter_options(JobSpec):
        rows.append(row(key, f))
        if key == "algorithm.options":
            config = PARTITIONERS.meta(AlgorithmSpec.name)["config"]
            rows += [  # a flag spells the spec key, never the table entry
                row(f"{key}.{g.name}", g, flags=False, allowed=(
                    f"refused: set `{OWNED_OPTIONS[g.name]}`" if g.name in OWNED_OPTIONS else ""
                ))
                for g in dataclasses.fields(config)
            ]
    return "\n".join(rows)


def check_spec_table(repo: Path = REPO) -> list[str]:
    """The committed README key table must equal the rendered one."""
    match = SPEC_TABLE_RE.search((repo / "README.md").read_text(encoding="utf-8"))
    if match is None:
        return ["README.md: no <!-- spec-table:begin/end --> block"]
    if match.group(1) != render_spec_table():
        return ["README.md: job-spec key table is stale -> paste the output of "
                "`python tools/check_docs_links.py --spec-table` between the markers"]
    return []


def check_example_jobs(repo: Path = REPO) -> list[str]:
    """Every ``examples/jobs/*.toml`` must parse as a JobSpec."""
    jobs_dir = repo / "examples" / "jobs"
    if not jobs_dir.is_dir():
        return []
    _import_repro(repo)
    from repro.api import JobSpec, SpecError

    problems = []
    for job in sorted(jobs_dir.glob("*.toml")):
        rel = job.relative_to(repo)
        try:
            JobSpec.from_file(job)
        except SpecError as exc:
            problems.append(f"{rel}: invalid job spec -> {exc}")
        except Exception as exc:  # unparsable TOML etc.
            problems.append(f"{rel}: does not load -> {type(exc).__name__}: {exc}")
    return problems


def main() -> int:
    if sys.argv[1:] == ["--spec-table"]:
        print(render_spec_table())
        return 0
    problems = []
    for md_file in iter_markdown_files():
        problems.extend(check_file(md_file))
    problems.extend(check_example_jobs())
    problems.extend(check_spec_table())
    for line in problems:
        print(line, file=sys.stderr)
    if not problems:
        jobs = len(list((REPO / "examples" / "jobs").glob("*.toml")))
        print(
            f"docs links OK ({len(iter_markdown_files())} files, "
            f"{jobs} example jobs checked)"
        )
    return len(problems)


if __name__ == "__main__":
    sys.exit(main())
