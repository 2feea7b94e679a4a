"""reprolint: per-rule true-positive/clean fixtures, suppressions, output.

Every REP rule gets at least one snippet it must flag and one it must
pass; suppression parsing (reasons are mandatory, stale waivers are
flagged) and the JSON report shape are pinned; and the repo's own source
must lint clean — the same gate CI enforces.
"""
from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro.analysis import LINT_CHECKS, lint_paths
from repro.cli import main as cli_main
from repro.distributed.messages import MessageSchema
from repro.storage import STORE_SCHEMA, StoreFormatError, StoreSchema
from test_retired_knobs import KNOBS, hits

REPO = Path(__file__).resolve().parent.parent


def run_lint(tmp_path, source: str, select=None, name="snippet.py"):
    path = tmp_path / name
    path.write_text(source)
    return lint_paths([path], select=select)


def codes(report) -> list[str]:
    return [f.code for f in report.unsuppressed]


# ----------------------------------------------------------------------
# framework basics
# ----------------------------------------------------------------------

def test_all_nine_rules_are_registered():
    # Five of the nine codes ever issued: REP005 (registry-cli-sync) retired
    # with the hand-listed CLI choices it policed, REP003 / REP008 / REP009
    # when a constructor, one dispatch function and two metered call sites
    # made their violations unwritable.  Codes are not re-used.
    assert LINT_CHECKS.names() == ["REP001", "REP002", "REP004", "REP006", "REP007"]
    # aliases resolve like every other registry
    assert LINT_CHECKS.canonical("unseeded-rng") == "REP001"
    assert LINT_CHECKS.canonical("rep002") == "REP002"
    assert LINT_CHECKS.canonical("shared-write-disjointness") == "REP007"
    for retired in ("wire-schema-exactness", "pipe-protocol-pairing", "frame-api-misuse"):
        assert retired not in LINT_CHECKS


def test_select_and_ignore_narrow_the_run(tmp_path):
    source = "import random\nimport time\nt = time.time()\n"
    only_rng = run_lint(tmp_path, source, select=["REP001"])
    assert codes(only_rng) == ["REP001"]
    no_rng = lint_paths([tmp_path / "snippet.py"], ignore=["REP001"])
    assert "REP001" not in codes(no_rng)


def test_unparsable_file_is_a_finding_not_a_crash(tmp_path):
    report = run_lint(tmp_path, "def broken(:\n")
    assert codes(report) == ["REP000"]
    assert "does not parse" in report.findings[0].message


# ----------------------------------------------------------------------
# REP001 unseeded-rng
# ----------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    "import numpy as np\nx = np.random.rand(3)\n",
    "import numpy as np\nrng = np.random.default_rng()\n",
    "import numpy as np\nrng = np.random.default_rng(None)\n",
    "import random\n",
    "from random import shuffle\n",
    "import random\nx = random.random()\n",
    "from numpy.random import default_rng\nrng = default_rng()\n",
])
def test_rep001_flags(tmp_path, bad):
    assert "REP001" in codes(run_lint(tmp_path, bad, select=["REP001"]))


@pytest.mark.parametrize("good", [
    "import numpy as np\nrng = np.random.default_rng(42)\n",
    "import numpy as np\nrng = np.random.default_rng(seed)\n",
    "import numpy as np\nss = np.random.SeedSequence(7)\n",
    "from numpy.random import default_rng\nrng = default_rng(123)\n",
    "import numpy as np\nrng = np.random.Generator(np.random.PCG64(1))\n",
])
def test_rep001_allows_seeded(tmp_path, good):
    assert codes(run_lint(tmp_path, good, select=["REP001"])) == []


# ----------------------------------------------------------------------
# REP002 unordered-float-fold
# ----------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    # augmented accumulation over a dict view
    "def f(d):\n    t = 0.0\n    for v in d.values():\n        t += v\n    return t\n",
    # the get-default fold idiom
    (
        "def f(d):\n    out = {}\n    for k, v in d.items():\n"
        "        out[k] = out.get(k, 0.0) + v\n    return out\n"
    ),
    # sum() over an unsorted view
    "def f(d):\n    return sum(v * 2 for v in d.values())\n",
    # set iteration
    "def f(s):\n    t = 0.0\n    for v in {1.5, 2.5}:\n        t += v\n    return t\n",
    # list() wrapper does not launder dict order
    "def f(d):\n    t = 0.0\n    for v in list(d.values()):\n        t += v\n    return t\n",
])
def test_rep002_flags(tmp_path, bad):
    assert "REP002" in codes(run_lint(tmp_path, bad, select=["REP002"]))


@pytest.mark.parametrize("good", [
    # sorted() pins the fold order
    "def f(d):\n    t = 0.0\n    for v in sorted(d.values()):\n        t += v\n    return t\n",
    "def f(d):\n    return sum(v for k, v in sorted(d.items()))\n",
    # list iteration is already ordered
    "def f(xs):\n    t = 0.0\n    for v in xs:\n        t += v\n    return t\n",
    # scatter assignment is not a fold
    "def f(d):\n    out = {}\n    for k, v in d.items():\n        out[k] = v\n    return out\n",
])
def test_rep002_allows(tmp_path, good):
    assert codes(run_lint(tmp_path, good, select=["REP002"])) == []


# ----------------------------------------------------------------------
# REP003 wire-schema-exactness (retired): the constructors are the rule.
# The rule's own cases, run against ``MessageSchema(...)`` / ``StoreSchema(...)``
# instead of against their source text.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("bad_dtype", ["object", "O", "f8", "i4", "int", "float64", "=i4", "S4"])
def test_rep003_flags(bad_dtype):
    for section in ("fields", "entry_fields"):
        columns = {"fields": (), section: (("a", "<i8"), ("b", bad_dtype))}
        with pytest.raises(ValueError, match=rf"schema 'x': {section} column 'b' declares dtype"):
            MessageSchema("x", **columns)


def test_rep003_flags_non_literal_fields():
    # What the linter could not audit, the constructor sees: values, not syntax.
    def make_fields():
        return tuple((name, "int64") for name in ("a", "b"))

    with pytest.raises(ValueError, match="column 'a' declares dtype 'int64'"):
        MessageSchema("x", fields=make_fields())
    with pytest.raises(ValueError, match="column 'a'"):
        MessageSchema("x", fields=(("a", int),))  # a type, not a dtype string


@pytest.mark.parametrize("good_dtype", ["<i4", "<i8", "<f8", ">u4", "i1", "u1", "?"])
def test_rep003_allows_exact(good_dtype):
    schema = MessageSchema("x", fields=(("a", good_dtype),), entry_fields=(("e", good_dtype),))
    assert schema.fixed_nbytes == schema.entry_nbytes > 0


def test_rep003_accepts_repo_schemas():
    # Importing the module *is* the check: a bad column fails here, on every
    # backend and in every test, instead of in a lint run.
    from repro.distributed_shp import schemas

    for name in schemas.__all__:
        schema = getattr(schemas, name)
        assert MessageSchema(schema.name, schema.fields, schema.entry_fields) == schema


@pytest.mark.parametrize("bad_dtype", ["object", "f8", "i8", "int64"])
def test_rep003_covers_store_schema(bad_dtype):
    """The on-disk StoreSchema is held to the same wire-exactness bar as
    MessageSchema — a native-endian section dtype is not portable."""
    with pytest.raises(StoreFormatError, match="q_indptr"):
        StoreSchema(fields=(("q_indptr", bad_dtype),))


def test_rep003_accepts_repo_store_schema():
    assert StoreSchema(STORE_SCHEMA.fields).fields == STORE_SCHEMA.fields
    # ... and wire and store share the one acceptance set.
    MessageSchema("store-columns", fields=STORE_SCHEMA.fields)


# ----------------------------------------------------------------------
# REP004 wire-pickle-safety
# ----------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    "class A:\n    def __init__(self):\n        self.fn = lambda x: x\n",
    "class A:\n    fn = lambda x: x\n",
    "def make():\n    class Local:\n        pass\n    return Local\n",
    "def f(ctx):\n    ctx.send(1, {'fn': lambda x: x})\n",
    "def f(sock):\n    send_obj(sock, lambda: 1)\n",
])
def test_rep004_flags(tmp_path, bad):
    assert "REP004" in codes(run_lint(tmp_path, bad, select=["REP004"]))


@pytest.mark.parametrize("good", [
    # default_factory lambdas never travel with the pickled instance
    (
        "from dataclasses import dataclass, field\n"
        "@dataclass\nclass A:\n"
        "    xs: list = field(default_factory=lambda: [])\n"
    ),
    # transient local lambdas that never cross the wire
    "def f(xs):\n    key = lambda x: -x\n    return sorted(xs, key=key)\n",
    # module-level classes are importable on workers
    "class A:\n    pass\n",
])
def test_rep004_allows(tmp_path, good):
    assert codes(run_lint(tmp_path, good, select=["REP004"])) == []


# ----------------------------------------------------------------------
# REP006 wallclock-in-kernel
# ----------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    "import time\ndef kernel(state):\n    return time.time()\n",
    "import time\ndef kernel(state):\n    return time.perf_counter()\n",
    "from time import perf_counter\ndef kernel(state):\n    return perf_counter()\n",
    "from time import monotonic as clock\ndef kernel(state):\n    return clock()\n",
    "from datetime import datetime\ndef kernel(s):\n    return datetime.now()\n",
])
def test_rep006_flags(tmp_path, bad):
    assert "REP006" in codes(run_lint(tmp_path, bad, select=["REP006"]))


@pytest.mark.parametrize("good", [
    # sleeping is not reading the clock into the computation
    "import time\ndef f():\n    time.sleep(0.1)\n",
    "def kernel(state, seed):\n    return state[seed]\n",
])
def test_rep006_allows(tmp_path, good):
    assert codes(run_lint(tmp_path, good, select=["REP006"])) == []


def test_rep006_scope_excludes_driver_code(tmp_path):
    # Outside fixture mode, backend driver files are out of scope.
    backend = REPO / "src/repro/distributed/backend.py"
    report = lint_paths([backend], select=["REP006"])
    assert codes(report) == []  # backend.py times supersteps legitimately


def test_rep006_scope_covers_storage():
    """The converter/readers are kernel-grade: their output must be a pure
    function of the source file, so storage/ sits inside REP006's scope
    (and the committed storage modules lint clean under it)."""
    from repro.analysis.checks.rep006 import WallclockInKernel

    assert "storage/" in WallclockInKernel.scope
    storage = sorted((REPO / "src/repro/storage").glob("*.py"))
    assert storage, "storage package is missing"
    report = lint_paths(storage, select=["REP006"])
    assert codes(report) == []


# ----------------------------------------------------------------------
# REP007 shared-write-disjointness
# ----------------------------------------------------------------------

# A request handler as ``serve`` calls it: the dispatched bounds arrive as
# its parameters.
WORKER_HEAD = (
    "def gains(handle, lo, hi):\n"
    "    pack = SharedArrayPack.attach(handle)\n"
    "    views = pack.arrays(writeable=True)\n"
)


@pytest.mark.parametrize("bad_tail", [
    # whole-array write ignores the dispatched bounds
    '    views["gain_cache"][:] = 1.0\n',
    # scalar index not derived from the dispatch
    '    views["gain_cache"][0] = 1.0\n',
    # rebinding the shared entry replaces the segment view
    '    views["gain_cache"] = compute()\n',
    # reading back an array workers write in this window: the legal
    # bounds-derived write makes gain_cache hot, the whole-array read races
    (
        '    views["gain_cache"][lo:hi] = 1.0\n'
        '    total = views["gain_cache"].sum()\n'
    ),
])
def test_rep007_flags(tmp_path, bad_tail):
    source = WORKER_HEAD + bad_tail
    assert "REP007" in codes(run_lint(tmp_path, source, select=["REP007"]))


@pytest.mark.parametrize("good_tail", [
    # the real worker idiom: scatter into the dispatched rank slice
    (
        '    ranks = views["work_buf"][lo:hi]\n'
        '    views["gain_cache"][ranks] = 0.5\n'
    ),
    # bounds-derived contiguous slice
    '    views["gain_cache"][lo:hi] = 0.5\n',
    # reads of arrays nobody writes in the window are fine
    '    x = float(views["rank_side"][lo])\n',
])
def test_rep007_allows(tmp_path, good_tail):
    source = WORKER_HEAD + good_tail
    assert codes(run_lint(tmp_path, source, select=["REP007"])) == []


def test_rep007_handlers_share_the_views_and_only_parameters_seed_derivation(tmp_path):
    # The refine worker's shape: handlers nested in the function that runs
    # ``serve``, the views bound by one (``level``) and written by another
    # (``gains``) through a closure variable.  A slice computed from the
    # parameters is fine; an index that is a plain local — even one read
    # off the pipe — is not dispatch-derived and must be flagged.
    source = (
        "def worker(conn):\n"
        "    views = None\n"
        "\n"
        "    def level(handle):\n"
        "        nonlocal views\n"
        "        views = SharedArrayPack.attach(handle).arrays(writeable=True)\n"
        "\n"
        "    def gains(lo, hi):\n"
        '        ranks = views["work_buf"][lo:hi]\n'
        '        views["gain_cache"][ranks] = 0.5\n'
        "{extra}"
        "\n"
        '    serve(conn, {{"level": level, "gains": gains}})\n'
    )
    assert codes(run_lint(tmp_path, source.format(extra=""), select=["REP007"])) == []
    for local in ("slot = 3\n", "slot = conn.recv()\n"):
        bad = source.format(
            extra="        " + local + '        views["gain_cache"][slot] = 0.0\n'
        )
        report = run_lint(tmp_path, bad, select=["REP007"])
        assert codes(report) == ["REP007"]
        assert "`slot`" in report.unsuppressed[0].message


def test_rep007_ignores_non_worker_scope(tmp_path):
    # No attach() anywhere: master-side code may build writeable views.
    source = (
        "def owner(pool):\n"
        '    views = pool.arrays("level", writeable=True)\n'
        '    views["gain_cache"][:] = 0.0\n'
    )
    assert codes(run_lint(tmp_path, source, select=["REP007"])) == []


# ----------------------------------------------------------------------
# REP008 pipe-protocol-pairing / REP009 frame-api-misuse (retired): a
# dispatch is paired by the only function that can dispatch, a wire call is
# metered by the two call sites there are.  What keeps it so is the table in
# test_retired_knobs.py; the snippets the rules flagged are the scratch
# edits that must trip it.
# ----------------------------------------------------------------------

@functools.cache
def _hits_in_the_repo() -> dict[str, int]:
    return {knob.id: len(hits(knob)) for knob in KNOBS}


def tripped(tmp_path, snippet: str, file: str = "src/repro/scratch.py") -> set[str]:
    """Ids of the table rows that break when ``snippet`` is added to the
    tree as ``file``."""
    scratch = tmp_path / file
    scratch.parent.mkdir(parents=True, exist_ok=True)
    scratch.write_text(snippet)
    now = _hits_in_the_repo()
    return {
        knob.id for knob in KNOBS
        if now[knob.id] <= knob.max_hits < now[knob.id] + len(hits(knob, tmp_path))
    }


@pytest.mark.parametrize("bad", [
    # dispatch with no barrier before exit
    (
        "def master(conns):\n"
        "    for c in conns:\n"
        '        c.send(("gains", 0, 4))\n'
    ),
    # close() while a dispatch is outstanding
    (
        "def master(conn):\n"
        '    conn.send(("level", 1))\n'
        "    conn.close()\n"
    ),
    # handler swallows a failed barrier without reacting
    (
        "def master(conn):\n"
        '    conn.send(("step", 1))\n'
        "    try:\n"
        "        reply = conn.recv()\n"
        "    except OSError:\n"
        "        pass\n"
    ),
    # raise with a dispatch outstanding skips the barrier
    (
        "def master(conn, bad):\n"
        '    conn.send(("step", 1))\n'
        "    if bad:\n"
        '        raise RuntimeError("abandoning the dispatch")\n'
        "    conn.recv()\n"
    ),
])
def test_rep008_flags(tmp_path, bad):
    assert "no-hand-dispatched-request-kind" in tripped(tmp_path, bad)


def test_reaching_into_the_private_dispatch_halves_trips_the_table(tmp_path):
    pool = "class Pool:\n    def go(self):\n        self._group._send(0, ('gains', 0, 4))\n"
    assert "no-private-dispatch-from-outside" in tripped(tmp_path, pool)
    # ... and inside the rpc master, a second place where a reply is received.
    rpc = "    def _retry(self, peer_idx):\n        return self._recv(peer_idx, 'retry')\n"
    assert "rpc-send-meets-recv-once" in tripped(tmp_path, rpc, "src/repro/distributed/backend_rpc.py")


# ----------------------------------------------------------------------
# REP009 frame-api-misuse (retired; see above)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    # byte count discarded outright
    "def f(sock):\n    send_obj(sock, ('init', {}))\n",
    # bound to underscore
    "def f(sock):\n    _ = send_obj(sock, ('init', {}))\n",
    # unpacked into underscore
    "def f(sock):\n    reply, _ = recv_obj(sock)\n    return reply\n",
    # raw socket op interleaved on a framed connection
    (
        "def f(sock):\n"
        "    n = send_obj(sock, ('init', {}))\n"
        "    sock.recv(4)\n"
        "    return n\n"
    ),
])
def test_rep009_flags(tmp_path, bad):
    # Anywhere in src/ it is a wire call outside the two files that may make
    # one; inside backend_rpc.py it is a call that does not meter.
    assert "wire-helpers-stay-in-backend-rpc" in tripped(tmp_path, bad)
    in_rpc = tripped(tmp_path, bad, "src/repro/distributed/backend_rpc.py")
    assert {"wire-helpers-have-four-call-sites", "every-master-wire-call-is-metered"} <= in_rpc
    assert ("raw-socket-io-only-in-wire" in in_rpc) == ("sock.recv(4)" in bad)


@pytest.mark.parametrize("good", [
    # raw ops on a socket that never carries frames are out of scope
    "def f(raw):\n    raw.send(b'x')\n    return raw.recv(4)\n",
])
def test_rep009_allows(tmp_path, good):
    assert tripped(tmp_path, good) == set()


def test_rep009_exempts_the_wire_module_itself(tmp_path):
    # Raw socket I/O on framed connections is wire.py's implementation.
    raw = [knob for knob in KNOBS if knob.id == "raw-socket-io-only-in-wire"][0]
    assert "src/repro/distributed/wire.py" in raw.exclude
    assert tripped(tmp_path, "sock.sendall(frame)\n", "src/repro/distributed/wire.py") == set()


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------

BAD_FOLD = (
    "def f(d):\n"
    "    t = 0.0\n"
    "    for v in d.values():\n"
    "        t += v{comment}\n"
    "    return t\n"
)


def test_suppression_with_reason_waives_the_finding(tmp_path):
    source = BAD_FOLD.format(
        comment="  # reprolint: disable=REP002 -- integer counters only"
    )
    report = run_lint(tmp_path, source, select=["REP002"])
    assert codes(report) == []
    assert len(report.suppressed) == 1
    assert report.suppressed[0].suppress_reason == "integer counters only"


def test_suppression_without_reason_is_rejected(tmp_path):
    source = BAD_FOLD.format(comment="  # reprolint: disable=REP002")
    report = run_lint(tmp_path, source, select=["REP002"])
    found = codes(report)
    assert "REP002" in found  # the waiver did not take effect
    assert "REP000" in found  # and the reasonless waiver is itself flagged


def test_file_level_suppression(tmp_path):
    source = (
        "# reprolint: file-disable=REP002 -- benchmark file, order-free sums\n"
        + BAD_FOLD.format(comment="")
    )
    report = run_lint(tmp_path, source, select=["REP002"])
    assert codes(report) == []
    assert len(report.suppressed) == 1


def test_unknown_code_in_suppression_is_flagged(tmp_path):
    source = "x = 1  # reprolint: disable=REP999 -- no such rule\n"
    report = run_lint(tmp_path, source)
    assert any(
        f.code == "REP000" and "unknown rule" in f.message
        for f in report.unsuppressed
    )


def test_stale_suppression_is_flagged(tmp_path):
    source = "x = 1  # reprolint: disable=REP002 -- nothing here to waive\n"
    report = run_lint(tmp_path, source)
    assert any(
        f.code == "REP000" and "matched no finding" in f.message
        for f in report.unsuppressed
    )


def test_reprolint_mention_in_string_is_not_a_suppression(tmp_path):
    source = "msg = '# reprolint: disable=REP002 -- quoted example'\n"
    report = run_lint(tmp_path, source)
    assert codes(report) == []


# ----------------------------------------------------------------------
# CLI + JSON output
# ----------------------------------------------------------------------

def test_cli_json_output_shape(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n")
    exit_code = cli_main(["lint", "--format", "json", str(bad)])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    assert payload["version"] == 1
    assert payload["tool"] == "reprolint"
    assert payload["files_checked"] == 1
    assert payload["summary"] == {
        "findings": 1, "unsuppressed": 1, "suppressed": 0,
    }
    (finding,) = payload["findings"]
    assert finding["code"] == "REP001"
    assert finding["severity"] == "error"
    assert finding["path"].endswith("bad.py")
    assert finding["line"] == 1
    assert finding["suppressed"] is False
    assert finding["suppress_reason"] is None


def test_cli_clean_file_exits_zero(tmp_path, capsys):
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    assert cli_main(["lint", str(good)]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_select_unknown_code_errors(tmp_path):
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    # a retired code is as unknown as a typo
    for code in ("NOPE", "REP003", "REP005", "REP008", "REP009"):
        with pytest.raises(SystemExit, match="error: unknown lint check"):
            cli_main(["lint", "--select", code, str(good)])


def test_cli_flags_the_committed_known_bad_fixture(capsys):
    fixture = REPO / "tests/reprolint_fixtures/known_bad.py"
    exit_code = cli_main(["lint", "--format", "json", str(fixture)])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code > 0
    hit = {f["code"] for f in payload["findings"]}
    # every rule the fixture targets must fire
    assert {"REP001", "REP002", "REP004", "REP006"} <= hit


def test_cli_flags_the_committed_concurrency_fixture(capsys):
    fixture = REPO / "tests/reprolint_fixtures/known_bad_concurrency.py"
    exit_code = cli_main(["lint", "--format", "json", str(fixture)])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code > 0
    hit = {f["code"] for f in payload["findings"]}
    # the concurrency rule must fire, or the gate has gone no-op
    assert hit == {"REP007"}


def test_cli_flags_the_committed_storage_fixture(capsys):
    fixture = REPO / "tests/reprolint_fixtures/known_bad_storage.py"
    exit_code = cli_main(["lint", "--format", "json", str(fixture)])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code > 0
    hit = {f["code"] for f in payload["findings"]}
    # the store-format rules must fire, or the storage gate has gone no-op
    assert {"REP001", "REP006"} <= hit


# ----------------------------------------------------------------------
# the gate: the repo's own source lints clean
# ----------------------------------------------------------------------

def test_repo_source_lints_clean_with_reasoned_suppressions():
    report = lint_paths([REPO / "src"])
    assert [f.render() for f in report.unsuppressed] == []
    assert report.suppressed, "the triaged int-fold waivers should exist"
    for finding in report.suppressed:
        assert finding.suppress_reason, finding.render()
