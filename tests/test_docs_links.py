"""Docs hygiene: every intra-repo link in README.md and docs/ resolves.

Drives ``tools/check_docs_links.py`` — the same script the CI docs step
runs — so a broken relative path or heading anchor fails the suite, not
just the workflow.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import check_docs_links  # noqa: E402


def test_repo_docs_have_no_broken_links():
    problems = []
    for md_file in check_docs_links.iter_markdown_files():
        problems.extend(check_docs_links.check_file(md_file))
    assert problems == []


def test_docs_pages_exist_and_are_linked_from_readme():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    for page in ("docs/architecture.md", "docs/running-distributed.md"):
        assert (REPO / page).is_file()
        assert page in readme


def test_checker_flags_broken_link(tmp_path):
    md = tmp_path / "README.md"
    md.write_text("see [missing](docs/nope.md) and [ok](#title)\n\n# Title\n")
    problems = check_docs_links.check_file(md, repo=tmp_path)
    assert len(problems) == 1
    assert "docs/nope.md" in problems[0]


def test_checker_flags_missing_anchor(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "a.md").write_text("# Real Heading\nbody\n")
    md = tmp_path / "README.md"
    md.write_text("[good](docs/a.md#real-heading) [bad](docs/a.md#fake)\n")
    problems = check_docs_links.check_file(md, repo=tmp_path)
    assert len(problems) == 1
    assert "#fake" in problems[0]


def test_checker_ignores_external_and_fenced(tmp_path):
    md = tmp_path / "README.md"
    md.write_text(
        "[x](https://example.com)\n```\n[y](not/a/link.md)\n```\n"
    )
    assert check_docs_links.check_file(md, repo=tmp_path) == []


@pytest.mark.parametrize(
    ("heading", "slug"),
    [
        ("Worker failure", "worker-failure"),
        ("The superstep lifecycle", "the-superstep-lifecycle"),
        ("Multi-host: `repro rpc-worker`", "multi-host-repro-rpc-worker"),
    ],
)
def test_slugify_matches_github_style(heading, slug):
    assert check_docs_links._slugify(heading) == slug


def test_repo_example_jobs_all_parse():
    """Every committed examples/jobs/*.toml is a valid JobSpec."""
    assert sorted((REPO / "examples" / "jobs").glob("*.toml")), (
        "examples/jobs/ should ship at least one job spec"
    )
    assert check_docs_links.check_example_jobs() == []


def test_checker_flags_invalid_example_job(tmp_path):
    jobs = tmp_path / "examples" / "jobs"
    jobs.mkdir(parents=True)
    (jobs / "good.toml").write_text(
        'kind = "partition"\n\n[graph]\nsource = "file"\npath = "g.hgr"\n\n'
        "[algorithm]\nk = 4\n"
    )
    (jobs / "bad.toml").write_text(
        'kind = "partition"\n\n[algorithm]\nk = 4\nbogus_knob = 1\n'
    )
    problems = check_docs_links.check_example_jobs(repo=tmp_path)
    assert len(problems) == 1
    assert "bad.toml" in problems[0]


def test_readme_spec_table_is_the_rendered_one():
    """The README's job-spec key table is derived, not hand-kept."""
    assert check_docs_links.check_spec_table() == []
    table = check_docs_links.render_spec_table()
    # header + one row per spec key + one per SHPConfig field under algorithm.options
    assert len(table.splitlines()) == 2 + 36 + 19
    assert "| `serving.queries_per_round` | `int` | `2000` | >= 0 | `--queries` |" in table
    assert "| `algorithm.options.num_bins` | `int` | `40` | >= 1 |  |" in table
    assert "| `algorithm.options.k` | `int` | `2` | refused: set `algorithm.k` |  |" in table


def test_checker_flags_a_stale_or_missing_spec_table(tmp_path):
    readme = tmp_path / "README.md"
    table = check_docs_links.render_spec_table()
    block = "<!-- spec-table:begin -->\n{}\n<!-- spec-table:end -->\n"
    readme.write_text(block.format(table))
    assert check_docs_links.check_spec_table(repo=tmp_path) == []
    readme.write_text(block.format(table.replace("`2000`", "`1000`")))
    assert "stale" in check_docs_links.check_spec_table(repo=tmp_path)[0]
    readme.write_text("# no table here\n")
    assert "no <!-- spec-table" in check_docs_links.check_spec_table(repo=tmp_path)[0]
