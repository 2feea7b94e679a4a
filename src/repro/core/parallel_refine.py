"""Shared-memory block-parallel gain computation for level-fused SHP-2.

The level-fused refiner's hot loop is the sibling-restricted gain kernel
(:mod:`repro.core.level_fuse`): per iteration it gathers every dirty
vertex's kept edges, reads the pair-compact counts, and reduces table
lookups per vertex.  That kernel is embarrassingly parallel over vertices
— each rank's gain is an independent segment sum over its own edges — so
this module splits the dirty-rank set into **ascending contiguous blocks**
(balanced by kept-edge count) and evaluates each block in a worker
process over shared-memory arrays, reusing the multiprocess backend's
segment plumbing via :class:`repro.distributed.shared_pool.SharedArrayPool`.

Determinism contract (the "deterministic ascending-block merge"):

* Per-rank gains are independent segment sums; a segment's value depends
  only on its own elements and their order, both of which are identical
  under any blocking of the rank set.  Splitting the dirty set into
  blocks therefore changes *where* each gain is computed, never its bits.
* Workers write their block's gains into disjoint, ascending slices of
  the shared ``gain_cache`` — the merge is the writes themselves, ordered
  by construction, with no reduction across workers.
* Everything order-sensitive — the matcher's RNG draws, move selection,
  the ``±1`` count scatter — stays on the master, byte-for-byte the same
  code path as the serial refiner.

Hence ``refine_workers=N`` produces bitwise-identical assignments and
objective trajectories to the serial path for every seed (pinned by the
parity grid in ``tests/test_parallel_refine.py``).

The pool is spawned once per ``SHP2Partitioner.partition`` call and
reused across recursion levels: each level publishes one segment holding
the level-static kernel inputs (pruned group-major edge arrays, gain
tables) plus the mutable run state (pair counts, sides, gain cache), and
per iteration the master ships only two integers per worker — the block
bounds into the shared work buffer.
"""

from __future__ import annotations

import time
import traceback

import numpy as np

from ..hypergraph.bipartite import csr_row_positions
from .gains import segment_sums

__all__ = ["ParallelGainPool", "block_pair_gains", "split_ranks_by_edges"]

#: Dirty sets smaller than this are refined serially on the master — the
#: per-worker pipe round trip would dominate the kernel.  Purely a
#: dispatch choice: gains are bitwise-identical either way.
PARALLEL_MIN_RANKS = 1024


def _sanitizer():
    """Active runtime sanitizer, or ``None`` (the default, zero-cost path).

    Imported lazily: ``repro.analysis`` pulls in the registry/api layer,
    which transitively imports this module — a top-level import would be
    a cycle.  With ``REPRO_SAN`` off this is one cached module lookup and
    a ``None`` return per barrier, nothing per rank.
    """
    from ..analysis.sanitizers import current

    return current()


def block_pair_gains(
    ranks: np.ndarray,
    rank_indptr: np.ndarray,
    rank_side: np.ndarray,
    pc: np.ndarray,
    gm_slot2: np.ndarray,
    gm_col_even: np.ndarray,
    gm_qw: np.ndarray | None,
    removal_table: np.ndarray,
    insertion_table: np.ndarray,
) -> np.ndarray:
    """Sibling-move gains for ``ranks`` (any subset, group-major gathers).

    The single source of truth for the subset gain kernel: the serial
    refiner and every pool worker call this same function over the same
    (shared) arrays, which is what makes the parallel path bitwise-equal
    to the serial one per rank.
    """
    positions, lengths = csr_row_positions(rank_indptr, ranks)
    if positions.size == 0:
        return np.zeros(ranks.size, dtype=np.float64)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    side_edge = np.repeat(rank_side[ranks], lengths)
    base = gm_slot2[positions]
    col_even = gm_col_even[positions]
    even = pc[base]
    total = pc[base + 1]
    n_cur = np.where(side_edge == 0, even, total - even)
    n_sib = total - n_cur
    col_cur = col_even + side_edge
    value = removal_table[n_cur, col_cur] - insertion_table[n_sib, col_cur ^ 1]
    if gm_qw is not None:
        value = value * gm_qw[positions]
    return segment_sums(value, starts, lengths)


def split_ranks_by_edges(
    ranks: np.ndarray, rank_indptr: np.ndarray, num_blocks: int
) -> np.ndarray:
    """Bounds of ``num_blocks`` ascending contiguous chunks of ``ranks``.

    Chunks are balanced by kept-edge count (the kernel's true cost), not
    by vertex count.  The split is a pure function of the sorted rank set
    and the level-static degrees, so the decomposition — and with it the
    merge order — is deterministic per seed.
    """
    bounds = np.zeros(num_blocks + 1, dtype=np.int64)
    if ranks.size == 0:
        return bounds
    cum = np.cumsum(rank_indptr[ranks + 1] - rank_indptr[ranks])
    total = int(cum[-1])
    targets = (np.arange(1, num_blocks, dtype=np.int64) * total) // num_blocks
    bounds[1:num_blocks] = np.searchsorted(cum, targets, side="left")
    bounds[num_blocks] = ranks.size
    return np.maximum.accumulate(bounds)


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _gain_worker_main(worker_id: int, conn) -> None:
    """One pool worker: attach a level segment, answer block-gain requests."""
    from ..distributed.shared_pool import SharedArrayPack

    pack = None
    views: dict | None = None
    has_qw = False
    try:
        while True:
            msg = conn.recv()
            kind = msg[0]
            if kind == "level":
                _, handle, meta = msg
                pack = SharedArrayPack.attach(handle)
                views = pack.arrays(writeable=True)
                has_qw = bool(meta["has_qw"])
                conn.send(("ready",))
            elif kind == "gains":
                _, lo, hi = msg
                assert views is not None
                ranks = views["work_buf"][lo:hi]
                gains = block_pair_gains(
                    ranks,
                    views["rank_indptr"],
                    views["rank_side"],
                    views["pc"],
                    views["gm_slot2"],
                    views["gm_col_even"],
                    views["gm_qw"] if has_qw else None,
                    views["removal_table"],
                    views["insertion_table"],
                )
                # The deterministic merge: each worker scatters into its
                # own ascending, disjoint slice of the shared gain cache.
                views["gain_cache"][ranks] = gains
                san = _sanitizer()
                if san is None:
                    conn.send(("done",))
                else:
                    # Echo the interval this block actually wrote so the
                    # master can check disjointness at the merge barrier.
                    from ..analysis.sanitizers import worker_echo

                    conn.send(("done", worker_echo(lo, hi, ranks)))
            elif kind == "drop":
                # Release views before closing: a live exported buffer
                # would keep the worker's mapping (and segment) alive.
                views = None
                if pack is not None:
                    pack.close()
                    pack = None
                conn.send(("dropped",))
            elif kind == "exit":
                break
    except EOFError:  # master went away; nothing to report to
        pass
    except BaseException as exc:  # ship the failure to the master
        tb = traceback.format_exc()
        try:
            conn.send(("error", exc, tb))
        except Exception:
            try:
                conn.send(("error", RuntimeError(f"{type(exc).__name__}: {exc}"), tb))
            except Exception:
                pass
    finally:
        views = None
        if pack is not None:
            pack.close()
        conn.close()


# ----------------------------------------------------------------------
# Pool
# ----------------------------------------------------------------------
class ParallelGainPool:
    """Persistent gain workers over one shared-memory segment per level.

    Spawned once per ``partition()`` call (fork-preferred context, same
    override knob as the mp backend) and reused across recursion levels;
    ``close()`` is idempotent and safe after partial failure.
    """

    def __init__(
        self,
        num_workers: int,
        mp_context: str | None = None,
        step_timeout: float = 600.0,
    ):
        import multiprocessing as mp

        from ..distributed.shared_pool import SharedArrayPool, default_mp_context

        if num_workers < 1:
            raise ValueError(f"num_workers must be at least 1, got {num_workers!r}")
        self.num_workers = num_workers
        self.step_timeout = step_timeout
        self._pool = SharedArrayPool()
        self._level_loaded = False
        self._failed = False
        ctx = mp.get_context(mp_context or default_mp_context())
        self._workers = []
        self._conns = []
        for worker_id in range(num_workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_gain_worker_main,
                args=(worker_id, child_conn),
                name=f"repro-refine-{worker_id}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._workers.append(proc)
            self._conns.append(parent_conn)

    # ------------------------------------------------------------------
    def publish_level(
        self, arrays: dict[str, np.ndarray], has_qw: bool
    ) -> dict[str, np.ndarray]:
        """Publish one level's kernel arrays; workers attach at the barrier.

        Returns the master's **writeable** views into the segment — the
        refiner rebinds its mutable state (``pc``, ``rank_side``,
        ``gain_cache``, ``work_buf``) to these so its in-place updates are
        visible to every worker at the next gains barrier.
        """
        if self._level_loaded:
            raise RuntimeError("previous level still loaded; call drop_level first")
        self._check_usable()
        handle = self._pool.publish("level", arrays)
        self._level_loaded = True
        meta = {"has_qw": has_qw}
        for worker_id, conn in enumerate(self._conns):
            self._send(conn, worker_id, ("level", handle, meta))
        for worker_id, conn in enumerate(self._conns):
            self._recv(conn, worker_id)
        return self._pool.arrays("level", writeable=True)

    def compute_gains(self, bounds: np.ndarray) -> None:
        """One barrier: worker ``w`` evaluates work-buffer block ``w``.

        ``bounds`` come from :func:`split_ranks_by_edges` over the sorted
        dirty set the master just wrote into the shared work buffer.
        """
        if not self._level_loaded:
            raise RuntimeError("no level loaded")
        self._check_usable()
        san = _sanitizer()
        if san is not None:
            san.gain_dispatch(bounds)
        for worker_id, conn in enumerate(self._conns):
            self._send(conn, worker_id, ("gains", int(bounds[worker_id]), int(bounds[worker_id + 1])))
        echoes: list | None = [] if san is not None else None
        for worker_id, conn in enumerate(self._conns):
            msg = self._recv(conn, worker_id)
            if echoes is not None:
                echoes.append(msg[1] if len(msg) > 1 else None)
        if san is not None:
            san.gain_barrier(bounds, echoes or [])

    def drop_level(self) -> None:
        """Detach workers from the level segment and unlink it (idempotent).

        The caller must have dropped its own views first — an exported
        buffer would keep the mapping alive and leak the segment.

        After a worker failure the round trip is skipped (the protocol is
        no longer in step) and the master just releases the segment, so
        error-path callers can always reclaim the shared memory.
        """
        if not self._level_loaded:
            return
        try:
            if not self._failed:
                for worker_id, conn in enumerate(self._conns):
                    self._send(conn, worker_id, ("drop",))
                for worker_id, conn in enumerate(self._conns):
                    self._recv(conn, worker_id)
        finally:
            # Reclaim the segment even when a worker died mid-drop.
            self._pool.release("level")
            self._level_loaded = False

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("exit",))
            except (OSError, BrokenPipeError):
                pass
        for proc in self._workers:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - error-path cleanup
                proc.terminate()
                proc.join(timeout=5)
        for conn in self._conns:
            conn.close()
        self._workers = []
        self._conns = []
        self._pool.close()
        self._level_loaded = False

    def __enter__(self) -> "ParallelGainPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _check_usable(self) -> None:
        if self._failed:
            raise RuntimeError(
                "refine pool is unusable after an earlier worker failure; "
                "close() it and partition with refine_workers=1 (serial) "
                "or a fresh pool"
            )

    def _send(self, conn, worker_id: int, msg: tuple) -> None:
        """Send one dispatch, translating a dead worker's pipe into a
        clear error (and poisoning the pool: the barrier protocol is out
        of step once any dispatch fails to land)."""
        try:
            conn.send(msg)
        except (OSError, ValueError) as exc:
            self._failed = True
            proc = self._workers[worker_id]
            proc.join(timeout=1)
            raise RuntimeError(
                f"refine worker {worker_id} is gone "
                f"(exitcode {proc.exitcode}); dispatch {msg[0]!r} failed: {exc}"
            ) from exc

    def _recv(self, conn, worker_id: int):
        """Receive one barrier message, surfacing worker death or errors."""
        proc = self._workers[worker_id]
        deadline = time.monotonic() + self.step_timeout  # reprolint: disable=REP006 -- barrier hang guard, not kernel math: no computed value depends on the clock
        while not conn.poll(0.05):
            if not proc.is_alive():
                self._failed = True
                raise RuntimeError(
                    f"refine worker {worker_id} exited unexpectedly "
                    f"(exitcode {proc.exitcode})"
                )
            if time.monotonic() > deadline:  # pragma: no cover - hang guard  # reprolint: disable=REP006 -- barrier hang guard, not kernel math: no computed value depends on the clock
                self._failed = True
                raise TimeoutError(
                    f"refine worker {worker_id} missed the gains barrier "
                    f"({self.step_timeout:.0f}s)"
                )
        try:
            msg = conn.recv()
        except (EOFError, ConnectionResetError, OSError) as exc:
            # poll() returns True for EOF too: a SIGKILLed worker's
            # half-closed pipe reads as "readable" and then fails here.
            self._failed = True
            proc.join(timeout=1)
            raise RuntimeError(
                f"refine worker {worker_id} died mid-dispatch "
                f"(exitcode {proc.exitcode}): {exc!r}"
            ) from exc
        if msg[0] == "error":
            _, exc, tb = msg
            self._failed = True
            raise exc from RuntimeError(f"refine worker {worker_id} failed:\n{tb}")
        return msg
