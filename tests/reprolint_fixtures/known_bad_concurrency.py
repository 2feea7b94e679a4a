"""Deliberately race-prone module for the reprolint concurrency self-check.

Companion to ``known_bad.py`` for the REP007 concurrency rule: the
worker here violates the shared-memory write-disjointness contract.  CI
lints this file and asserts the linter *fails* — if the analyzer ever
passes it, the gate has gone no-op.  Never "fix" this module; it is
linted, not imported.  (An unpaired dispatch or an unmetered wire call has
no fixture: ``PipeWorkers`` and the rpc master offer no way to write one,
and ``tests/test_retired_knobs.py`` keeps it that way.)
"""

from repro.distributed.shared_pool import SharedArrayPack


def racy_worker(handle, conn):
    """Worker that ignores its dispatched bounds (REP007)."""
    pack = SharedArrayPack.attach(handle)
    views = pack.arrays(writeable=True)
    lo, hi = conn.recv()
    gains = views["work_buf"][lo:hi] * 2.0
    views["gain_cache"][:] = gains           # REP007: whole-array write
    views["gain_cache"][3] = 0.0             # REP007: index not from dispatch
    views["side"] = gains                    # REP007: rebinds shared entry
    total = views["gain_cache"].sum()        # REP007: reads siblings' writes
    conn.send(("done", total))
