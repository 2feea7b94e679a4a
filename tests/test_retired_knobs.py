"""Retired knobs stay retired: one table of line greps over the source tree.

Every operation in ``src/`` has one implementation, every option one
declaration and every invariant one home; what was deleted to get there
must not grow back.  Each :class:`Knob` is a regex searched line by line
in the ``*.py`` files under ``paths`` (minus ``exclude``), a ceiling on
the matching lines, and the reason — printed with the offending lines when
the ceiling breaks.  ``control`` is a line the pattern must match, so a
typo'd regex cannot pass vacuously.  CI runs this file as its "Retired
knobs stay retired" step; it needs nothing but the checkout.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Knob:
    id: str
    pattern: str
    paths: tuple[str, ...]
    max_hits: int
    why: str
    control: str
    exclude: tuple[str, ...] = ()


_SRC = ("src",)
_WIRE = "src/repro/distributed/wire.py"
_RPC = "src/repro/distributed/backend_rpc.py"
_MP = "src/repro/distributed/backend_mp.py"
_POOL = "src/repro/core/parallel_refine.py"
_CLI = "src/repro/cli.py"
_CADENCE = r"checkpoint_(every|period|interval|cadence)"
_STALE_RULE = r"full_recompute|recompute_all|incremental_s3"

_SHP = "src/repro/distributed_shp/columnar.py"

KNOBS = [
    # -- neighbor data is a table of slots (PR 24) -----------------------
    Knob(
        "no-ragged-neighbor-rows",
        r"cache_indptr|cache_bucket|cache_count|\bnd_indptr|nd_bucket|nd_count|pin_row", _SRC, 0,
        "a ragged neighbor-data CSR (or the pin -> cache-row join over one) is back beside "
        "the slot tables (columnar.SlotTable holds both sides' counts; a row is a key range)",
        "        part.cache_bucket = pool_b[positions]",
    ),
    Knob(
        "one-lexsort-in-the-shp-program", r"np\.lexsort\(", (_SHP,), 1,
        "the SHP program sorts per superstep again (S2 is a scatter into the slot table; "
        "the 1 lexsort is create_partition's canonical pin order, once per partition)",
        "            order = np.lexsort((all_b, all_q))",
    ),
    Knob(
        "no-per-message-vertex-search", r"searchsorted\(part\.dvids", (_SHP,), 0,
        "S3 looks every neighbor-data message's destination up again (the stale vertices "
        "of a re-broadcast row are the row's slice of the row -> vertices transpose)",
        "            part.stale[np.searchsorted(part.dvids, batch.dst)] = True",
    ),
    Knob(
        "no-unique-on-a-message-column", r"np\.unique\(", (_SHP,), 1,
        "S3 dedupes a message column by sorting it again (a row's messages arrive back to "
        "back: one adjacent-difference pass; the 1 np.unique( is the hist aggregate's)",
        "            uq, first_idx = np.unique(q, return_index=True)",
    ),
    # -- an option is declared once, the other half (PR 23) --------------
    Knob(
        "one-spec-to-config-assembly", r"_shp_options|SHPConfig\(", ("src/repro/api",), 1,
        "the runner's key check is back, or a spec is turned into an SHPConfig in a second "
        "place (runner._shp_config is the one; JobSpec checks the options table)",
        "    config_kwargs.update(_shp_options(alg))",
    ),
    Knob(
        "no-toml-less-fork", r"tomllib = None|tomllib is None", _SRC, 0,
        "the no-TOML fallback is back (requires-python >= 3.10 with tomli below 3.11: "
        "no supported install reaches it)",
        "    if tomllib is None:  # pragma: no cover",
    ),
    Knob(
        "no-results-dir", r"REPRO_RESULTS_DIR|results_dir\(", ("src", "benchmarks", "tests"), 0,
        "bench/recorder.py's untracked results directory is back (bench scripts print "
        "their tables; recorded numbers belong in the perf ledger)",
        'override = os.environ.get("REPRO_RESULTS_DIR")',
        exclude=("tests/test_retired_knobs.py",),
    ),
    Knob(
        "no-default-drift-test", r"TestLibraryDefaultsHaveNotDrifted", ("tests",), 0,
        "a test pairing spec defaults with library defaults is back: a shared default is "
        "one literal the other side reads (spec.same_option / ExecutionSpec.<field>)",
        "class TestLibraryDefaultsHaveNotDrifted:",
        exclude=("tests/test_retired_knobs.py",),
    ),
    Knob(
        "marginals-written-once", r"def (insertion_cost|removal_gain)_at|def insertion_cost\b",
        _SRC, 0,
        "an objective spells its insertion cost or a *_at twin again (insertion_cost(n) is "
        "removal_gain(n + 1), once, in SeparableObjective; columns are the optional argument)",
        "    def insertion_cost_at(self, counts, buckets):",
        exclude=("src/repro/objectives/base.py",),
    ),
    # -- an invariant lives where it cannot be bypassed (PR 22) ----------
    Knob(
        "wire-helpers-have-four-call-sites", r"(send_obj|recv_obj)\(", _SRC, 4,
        "the framed wire grew a call site: on the master only RpcBackend._send / _recv "
        "touch it (each metering in the same statement), on a worker only _SocketChannel",
        "self._wire += send_obj(sock, request)", exclude=(_WIRE,),
    ),
    Knob(
        "wire-helpers-stay-in-backend-rpc", r"(send_obj|recv_obj)\(", _SRC, 0,
        "send_obj / recv_obj are called outside distributed/backend_rpc.py: that byte "
        "count reaches no meter",
        "reply, _ = recv_obj(sock)", exclude=(_WIRE, _RPC),
    ),
    Knob(
        "every-master-wire-call-is-metered",
        r"^(?!.*(self\._wire \+=|self\._sock)).*(send_obj|recv_obj)\(", (_RPC,), 0,
        "a wire call in backend_rpc.py neither adds its byte count to self._wire on the "
        "same line nor is the worker channel's (what REP009 policed)",
        "            send_obj(peer.sock, ('exit',))",
    ),
    Knob(
        "raw-socket-io-only-in-wire", r"sock\.(send|sendall|recv|recv_into)\(", _SRC, 0,
        "raw socket I/O outside distributed/wire.py injects unframed bytes into a framed "
        "stream (REP009's other half)",
        "    sock.recv(4)", exclude=(_WIRE,),
    ),
    Knob(
        "rpc-send-meets-recv-once", r"self\._recv\(", (_RPC,), 1,
        "the rpc master receives outside RpcBackend._round: a request and its reply "
        "are paired by the one function that sends (what REP008 modelled)",
        "payload = self._recv(peer_idx, what)",
    ),
    Knob(
        "rpc-sends-in-round-and-exit", r"self\._send\(", (_RPC,), 2,
        "the rpc master sends outside RpcBackend._round and the reply-less exit in _close",
        "if self._send(peer_idx, request):",
    ),
    Knob(
        "no-private-dispatch-from-outside", r"(?<!self)\._(send|recv)\(", _SRC, 0,
        "PipeWorkers' / RpcBackend's per-worker halves are called from outside the "
        "class: owners dispatch through barrier() / gather() / _round()",
        "self._group._send(0, request)",
    ),
    Knob(
        "no-hand-dispatched-request-kind",
        r"""\.send\(\(\s*["'](init|adopt|step|collect|level|gains|drop)["']""", _SRC, 0,
        "a reply-carrying request kind is sent by hand instead of through "
        "PipeWorkers.barrier / RpcBackend._round: nothing pairs it with its reply",
        '        c.send(("gains", 0, 4))',
    ),
    Knob(
        "dtype-regex-defined-once", r"\[<>\]\[iufc\]", _SRC, 1,
        "a second copy of the exact-dtype acceptance set (storage/format.py:"
        "is_exact_dtype is the one StoreSchema and MessageSchema both call)",
        r'_RE = re.compile(r"^(?:[<>][iufc](?:2|4|8|16))$")',
    ),
    Knob(
        "retired-rules-leave-no-trace",
        r"REP003|REP005|REP008|REP009|SAN008|frame_begin|frame_break|_frame_states", _SRC, 0,
        "a retired lint code, a waiver for one, or the sanitizer's frame-state probe is "
        "back in src/ (codes are not re-used)",
        "send_obj(sock, x)  # reprolint: disable=REP009 -- teardown",
    ),
    # -- cells are the interface (PR 21) ---------------------------------
    Knob(
        "one-aggregation-in-swaps", r"np\.unique\(", ("src/repro/core/swaps.py",), 1,
        "a matcher front-end aggregates its own cells again (use swaps.aggregate_cells; "
        "the one np.unique( is that stage's sorted branch)",
        "keys, inverse = np.unique(cells, return_inverse=True)",
    ),
    Knob(
        "one-cell-key-codec", r"num_bin_ids", _SRC, 1,
        "cell-key arithmetic is written out again (use GainBinning.cell_keys / "
        "split_cell_keys; the 1 other reference sizes the key space for aggregate_cells)",
        "key = pair * binning.num_bin_ids + bin_id",
        exclude=("src/repro/core/histograms.py",),
    ),
    Knob(
        "no-dict-aggregates", r"aggregate_items|include_extras|return_extras", _SRC, 0,
        "a dict-form aggregate or a return-type flag of match_histogram_cells is back",
        "def match_histogram_cells(keys, counts, return_extras=False):",
    ),
    Knob(
        "no-per-key-loops-in-the-engine", r"for .* in .*probs|hist\[",
        ("src/repro/distributed_shp",), 0,
        "a per-key Python loop over histogram cells or probabilities is back in the "
        "engine (aggregates cross every barrier as (keys, values) arrays)",
        "for key, p in probs.items():",
    ),
    # -- a gain is a sum of slot values (PR 20) --------------------------
    Knob(
        "pool-workers-only-gather-and-sum",
        r"removal_table|insertion_table|gm_col_even|gm_slot2", (_POOL,), 0,
        "pool workers evaluate Eq. 1 per pin again (publish slot values, not tables)",
        "gain = removal_table[count] - insertion_table[other]",
    ),
    Knob(
        "no-stable-sort-in-level-setup", r'kind="stable"', ("src/repro/core/level_fuse.py",), 0,
        "a stable edge sort is back in the level set-up (no reader needs the order "
        "inside a slot)",
        'order = np.argsort(slot, kind="stable")',
    ),
    # -- ingest at array speed (PR 19) -----------------------------------
    Knob(
        "no-bare-unique-on-the-ingest-path", r"np\.unique\((?!.*return_)",
        ("src/repro/hypergraph", "src/repro/storage"), 1,
        "a bare np.unique( — numpy's hash path, ~40x slower on edge-scale keys — is back "
        "on the ingest path (use bipartite.sorted_unique; the 1 exemption, in stats.py, "
        "dedupes 20 histogram bin edges)",
        "pins = np.unique(pins)",
    ),
    Knob(
        "no-line-reader", r"\.readline\(", ("src/repro/hypergraph/io.py",), 0,
        "a line-by-line reader is back in hypergraph/io.py (parse blocks through TokenLines)",
        "line = handle.readline()",
    ),
    # -- an option is declared once (PR 18) ------------------------------
    Knob(
        "cli-flags-derive-from-the-spec", r"add_argument\(", (_CLI,), 24,
        "cli.py restates spec keys as hand-written flags again (declare them in "
        "api/spec.py: every flag that is a spec key derives from its field, so cli.py "
        "holds only the arguments that have no spec key)",
        'parser.add_argument("--workers", type=int)',
    ),
    Knob(
        "no-hand-listed-choices", r"choices=\[", (_CLI,), 0,
        "a hand-listed choices=[...] is back in cli.py (read it from the field's "
        "registry — what REP005 used to police)",
        'p.add_argument("--backend", choices=["sim", "mp"])',
    ),
    # -- one implementation per operation (PRs 13-17) --------------------
    Knob(
        "vertex-mode-stays-in-the-spec", r"vertex_mode", _SRC, 0,
        "vertex_mode leaked out of api/spec.py (it is accepted there because old specs "
        "write it; it must not become a constructor argument, flag or manifest field)",
        'def __init__(self, vertex_mode="columnar"):', exclude=("src/repro/api/spec.py",),
    ),
    Knob(
        "no-retired-twins", r'level_mode|method="loop"|_replay_loop|_refine_group', _SRC, 0,
        "a retired twin or its selector is back in src/ (the references the suite "
        "compares against live in tests/oracles/)",
        'replay_traffic(graph, assignment, method="loop")',
    ),
    Knob(
        "shipping-code-imports-no-oracle", r"^\s*(from|import)\s+oracles\b",
        ("src", "benchmarks", "examples"), 0,
        "shipping code imports tests/oracles",
        "from oracles.per_vertex import run_per_vertex",
    ),
    Knob(
        "one-barrier-wait", r"\.poll\(", _SRC, 1,
        "a second barrier wait is back in src/ (PipeWorkers._recv is the only one)",
        "while not conn.poll(0.05):",
    ),
    Knob(
        "one-service-loop", r"while True", (_POOL,), 0,
        "the refine pool has its own service loop again (distributed/worker.py:serve "
        "is the one)",
        "    while True:",
    ),
    Knob(
        "one-pipe-master", r"def _(recv|send)\b", (_POOL, _MP), 2,
        "a private pipe master is back beside PipeWorkers (whose own _send / _recv are "
        "the 2)",
        "    def _recv(self, worker_id):",
    ),
    Knob(
        "checkpoint-cadence-is-the-programs", _CADENCE, _SRC, 0,
        "the rpc checkpoint cadence (the program's protocol cycle, read in code) became "
        "a spec key, a CLI flag or a constructor argument",
        "def __init__(self, checkpoint_every: int = 1):",
    ),
    Knob(
        "stale-rule-is-not-an-option", _STALE_RULE, _SRC, 0,
        "S3's stale rule became a spec key, a CLI flag or a constructor argument (full "
        "recompute is the same kernel with every vertex stale)",
        "def __init__(self, full_recompute=False):",
    ),
]


def hits(knob: Knob, root: Path = REPO) -> list[str]:
    """``path:line: text`` of every line under ``root`` the knob's pattern
    matches (``paths`` that do not exist under ``root`` hold no lines)."""
    pattern = re.compile(knob.pattern)
    excluded = {root / path for path in knob.exclude}
    found = []
    for path in knob.paths:
        base = root / path
        for file in sorted(base.rglob("*.py")) if base.is_dir() else [base]:
            if file in excluded or not file.is_file():
                continue
            for number, line in enumerate(file.read_text().splitlines(), 1):
                if pattern.search(line):
                    found.append(f"{file.relative_to(root)}:{number}: {line.strip()}")
    return found


@pytest.mark.parametrize("knob", KNOBS, ids=lambda knob: knob.id)
def test_retired_knob_stays_retired(knob):
    assert re.search(knob.pattern, knob.control), "the pattern misses its positive control"
    found = hits(knob)
    assert len(found) <= knob.max_hits, "\n".join(
        [f"{knob.why} — {len(found)} matching lines, at most {knob.max_hits} allowed:", *found]
    )


def test_knob_ids_are_unique():
    assert len({knob.id for knob in KNOBS}) == len(KNOBS)
