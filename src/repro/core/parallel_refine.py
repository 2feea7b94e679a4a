"""Shared-memory block-parallel gain computation for level-fused SHP-2.

The level-fused refiner's hot loop is the sibling-restricted gain kernel
(:mod:`repro.core.level_fuse`): per iteration it gathers every dirty
vertex's kept pins, reads the Eq. 1 term each one indexes in the level's
slot-value cache, and sums per vertex.  That kernel is embarrassingly
parallel over vertices — each rank's gain is an independent segment sum
over its own pins — so this module splits the dirty-rank set into
**ascending contiguous blocks** (balanced by kept-edge count) and
evaluates each block in a worker process over shared-memory arrays,
reusing the multiprocess backend's segment plumbing via
:class:`repro.distributed.shared_pool.SharedArrayPool`.

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
reused across recursion levels.  Each level publishes one segment of five
arrays: ``rank_indptr`` (level-static CSR bounds of the kept pins),
``gm_vidx`` (``2 · slot + side`` per kept pin), ``slot_value`` (the Eq. 1
term per (slot, side)), ``gain_cache`` and ``work_buf``.  Workers sum slot
values, they never evaluate one: the gain tables, the pair counts and the
sides stay private to the master.  Between two gains barriers the master
mutates, in place, ``gm_vidx`` (a mover's pins flip their low bit),
``slot_value`` (the touched slots, refreshed after the count scatter) and
``work_buf`` (the next dirty set); workers write nothing but
``gain_cache[ranks]`` of their own block, and only inside a barrier.  Per
iteration the master ships two integers per worker — the block bounds
into the shared work buffer.

The pool is not a worker runtime of its own.  Its workers run the one
service loop, :func:`repro.distributed.worker.serve`, over three request
kinds — ``("level", handle)`` attaches the level segment,
``("gains", lo, hi)`` evaluates and scatters work-buffer block ``[lo, hi)``
(its ``ok`` payload is the sanitizer's echo under ``REPRO_SAN``, else
``None``), ``("drop",)`` detaches — and its master side is the one pipe
group, :class:`repro.distributed.backend_mp.PipeWorkers`.  What the pool
keeps is the level segment and poisoning: a failed barrier leaves the
later replies out of step, so the pool refuses further dispatches.
"""

from __future__ import annotations

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
    gm_vidx: np.ndarray,
    slot_value: np.ndarray,
) -> np.ndarray:
    """Sibling-move gains for ``ranks`` (any subset, group-major gathers).

    A gain is the sum of the rank's kept pins' slot values, in row order:
    ``gm_vidx`` holds ``2 · slot + side`` per pin, ``slot_value`` the
    Eq. 1 term per (slot, side), refreshed by the master wherever a count
    changed.  One index gather, one value gather, one segmented sum — no
    objective is evaluated here.

    The single source of truth for the subset gain kernel: the serial
    refiner and every pool worker call this same function over the same
    (shared) arrays, which is what makes the parallel path bitwise-equal
    to the serial one per rank.
    """
    positions, lengths = csr_row_positions(rank_indptr, ranks)
    if positions.size == 0:
        return np.zeros(ranks.size, dtype=np.float64)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    return segment_sums(slot_value.reshape(-1)[gm_vidx[positions]], starts, lengths)


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
def _gain_worker_main(conn) -> None:
    """One pool worker: the shared service loop over the level segment."""
    from ..distributed.shared_pool import SharedArrayPack
    from ..distributed.worker import serve

    pack = None
    views: dict | None = None

    def level(handle):
        nonlocal pack, views
        pack = SharedArrayPack.attach(handle)
        views = pack.arrays(writeable=True)

    def gains(lo, hi):
        ranks = views["work_buf"][lo:hi]
        block = block_pair_gains(
            ranks, views["rank_indptr"], views["gm_vidx"], views["slot_value"]
        )
        # The deterministic merge: each worker scatters into its own
        # ascending, disjoint slice of the shared gain cache.
        views["gain_cache"][ranks] = block
        if _sanitizer() is not None:
            # Echo the interval this block actually wrote so the master
            # can check disjointness at the merge barrier.
            from ..analysis.sanitizers import worker_echo

            return worker_echo(lo, hi, ranks)

    def drop():
        # Release views before closing: a live exported buffer would keep
        # the worker's mapping (and segment) alive.
        nonlocal pack, views
        views = None
        if pack is not None:
            pack.close()
            pack = None

    try:
        serve(conn, {"level": level, "gains": gains, "drop": drop})
    finally:
        drop()
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
        from ..distributed.backend_mp import PipeWorkers
        from ..distributed.shared_pool import SharedArrayPool

        if num_workers < 1:
            raise ValueError(f"num_workers must be at least 1, got {num_workers!r}")
        self.num_workers = num_workers
        self.step_timeout = step_timeout
        self._pool = SharedArrayPool()
        self._failed = False
        self._group = PipeWorkers(
            mp_context, _gain_worker_main, [()] * num_workers, "refine worker", step_timeout
        )

    # ------------------------------------------------------------------
    def publish_level(self, arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Publish one level's kernel arrays; workers attach at the barrier.

        Returns the master's **writeable** views into the segment — the
        refiner rebinds what it mutates (``gm_vidx``, ``slot_value``,
        ``gain_cache``, ``work_buf``) to these so its in-place updates are
        visible to every worker at the next gains barrier.
        """
        if "level" in self._pool:
            raise RuntimeError("previous level still loaded; call drop_level first")
        self._check_usable()
        handle = self._pool.publish("level", arrays)
        self._barrier([("level", handle)] * self.num_workers)
        return self._pool.arrays("level", writeable=True)

    def compute_gains(self, bounds: np.ndarray) -> None:
        """One barrier: worker ``w`` evaluates work-buffer block ``w``.

        ``bounds`` come from :func:`split_ranks_by_edges` over the sorted
        dirty set the master just wrote into the shared work buffer.
        """
        if "level" not in self._pool:
            raise RuntimeError("no level loaded")
        self._check_usable()
        san = _sanitizer()
        if san is not None:
            san.gain_dispatch(bounds)
        echoes = self._barrier(
            [("gains", int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
        )
        if san is not None:
            san.gain_barrier(bounds, echoes)

    def drop_level(self) -> None:
        """Detach workers from the level segment and unlink it (idempotent).

        The caller must have dropped its own views first — an exported
        buffer would keep the mapping alive and leak the segment.

        After a worker failure the round trip is skipped (the protocol is
        no longer in step) and the master just releases the segment, so
        error-path callers can always reclaim the shared memory.
        """
        if "level" not in self._pool:
            return
        try:
            if not self._failed:
                self._barrier([("drop",)] * self.num_workers)
        finally:
            # Reclaim the segment even when a worker died mid-drop.
            self._pool.release("level")

    def close(self) -> None:
        self._group.close()
        self._pool.close()

    # ------------------------------------------------------------------
    def _check_usable(self) -> None:
        if self._failed:
            raise RuntimeError(
                "refine pool is unusable after an earlier worker failure; "
                "close() it and partition with refine_workers=1 (serial) "
                "or a fresh pool"
            )

    def _barrier(self, requests: list[tuple]) -> list:
        """One request per worker, one reply each; a barrier that fails
        poisons the pool (the replies behind it are out of step)."""
        try:
            return self._group.barrier(requests)
        except BaseException:
            self._failed = True
            raise
