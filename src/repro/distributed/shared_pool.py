"""Reusable ``multiprocessing.shared_memory`` lifecycle for numpy arrays.

Extracted from :mod:`repro.distributed.backend_mp` so every component that
publishes arrays to sibling processes — the multiprocess engine backend and
the shared-memory parallel refiner (:mod:`repro.core.parallel_refine`) —
shares one implementation of the create/attach/unlink protocol instead of
growing private copies.

Two layers:

* :class:`SharedArrayPack` — a named set of numpy arrays packed into one
  shared-memory segment.  The creator copies arrays in and owns the
  segment; workers attach views by segment name via a picklable handle.
* :class:`SharedArrayPool` — an owner-side registry of packs keyed by
  string, guaranteeing every published segment is closed and unlinked
  exactly once no matter how the run ends (``close()`` is idempotent and
  usable as a context manager).

Attached views are read-only by default (the engine's immutability
contract).  Callers that need cross-process mutation — the parallel
refiner's move/gain arrays — request ``writeable=True`` explicitly.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from multiprocessing import shared_memory

import numpy as np

__all__ = ["SharedArrayPack", "SharedArrayPool", "default_mp_context"]


def default_mp_context() -> str:
    """Start method for sibling processes (engine workers, the refine pool):
    ``REPRO_MP_CONTEXT`` if set, else ``fork`` where available (instant
    startup), else ``spawn``."""
    override = os.environ.get("REPRO_MP_CONTEXT")
    if override:
        return override
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


class SharedArrayPack:
    """A named set of numpy arrays living in one shared-memory segment.

    The creator copies the arrays in and keeps the segment alive; workers
    :meth:`attach` views by segment name.  Views are frozen
    (``writeable=False``) unless the caller opts into shared mutation.
    """

    def __init__(self, shm: shared_memory.SharedMemory, layout: list, owner: bool):
        self.shm = shm
        #: list of (name, dtype-str, shape, byte offset)
        self.layout = layout
        self.owner = owner
        self.closed = False

    @classmethod
    def create(cls, arrays: dict[str, np.ndarray]) -> "SharedArrayPack":
        layout = []
        offset = 0
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            layout.append((name, arr.dtype.str, arr.shape, offset))
            offset += arr.nbytes  # reprolint: disable=REP002 -- integer byte offsets: the stored layout records whatever order is used
        shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
        for (name, dtype, shape, off), arr in zip(layout, arrays.values()):
            nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
            if nbytes:
                view = np.ndarray(shape, dtype=dtype, buffer=shm.buf[off : off + nbytes])
                view[...] = np.ascontiguousarray(arr)
        return cls(shm, layout, owner=True)

    @property
    def handle(self) -> tuple:
        """Picklable (segment name, layout) pair for workers."""
        return (self.shm.name, self.layout)

    @classmethod
    def attach(cls, handle: tuple) -> "SharedArrayPack":
        name, layout = handle
        return cls(_attach_untracked(name), layout, owner=False)

    def arrays(self, writeable: bool = False) -> dict[str, np.ndarray]:
        if self.closed:
            raise RuntimeError(
                "shared pack is closed; views into an unmapped segment "
                "would be dangling"
            )
        out = {}
        for name, dtype, shape, off in self.layout:
            nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
            arr = np.ndarray(shape, dtype=dtype, buffer=self.shm.buf[off : off + nbytes])
            if not writeable:
                arr.flags.writeable = False
            out[name] = arr
        return out

    def close(self) -> None:
        # Idempotent: error-path callers (drop_level after a worker death,
        # pool teardown after partial publish) may close the same pack
        # more than once.
        if self.closed:
            return
        self.closed = True
        # The owner unlinks *before* closing: a still-exported numpy view
        # makes close() raise BufferError, and unlinking first guarantees
        # the name is gone either way (POSIX keeps the mapping valid until
        # the last map drops), so no segment outlives the run.
        if self.owner:
            try:
                self.shm.unlink()
            except (OSError, FileNotFoundError):  # pragma: no cover - teardown race
                pass
            self.owner = False
        try:
            self.shm.close()
        except (OSError, BufferError):  # pragma: no cover - live views remain
            pass


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker registration.

    Only the creating master owns (and unlinks) a segment.  Stock
    ``SharedMemory(name=...)`` also registers attach-only handles, which
    makes the shared tracker try to clean the same name once per worker and
    log spurious ``KeyError`` noise (Python < 3.13 has no ``track=False``).
    """
    try:  # pragma: no cover - depends on tracker internals
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name, create=False)
        finally:
            resource_tracker.register = original
    except ImportError:  # pragma: no cover - no tracker on this platform
        return shared_memory.SharedMemory(name=name, create=False)


class SharedArrayPool:
    """Owner-side registry of :class:`SharedArrayPack` segments.

    Publishing returns the picklable handle to ship to workers; ``close()``
    releases every segment still registered (idempotent), so one
    ``try/finally`` — or a ``with`` block — covers any number of packs.
    """

    def __init__(self) -> None:
        self._packs: dict[str, SharedArrayPack] = {}

    def publish(self, key: str, arrays: dict[str, np.ndarray]) -> tuple:
        """Copy ``arrays`` into a new segment registered under ``key``."""
        if key in self._packs:
            raise KeyError(f"shared pack {key!r} already published")
        pack = SharedArrayPack.create(arrays)
        self._packs[key] = pack
        return pack.handle

    def adopt(self, key: str, pack: SharedArrayPack) -> SharedArrayPack:
        """Register an externally created pack for lifecycle management."""
        if key in self._packs:
            raise KeyError(f"shared pack {key!r} already published")
        self._packs[key] = pack
        return pack

    def handle(self, key: str) -> tuple:
        return self._packs[key].handle

    def arrays(self, key: str, writeable: bool = False) -> dict[str, np.ndarray]:
        """Views into the segment published under ``key``.

        The owner opts into ``writeable=True`` when the pack holds mutable
        run state (e.g. the parallel refiner's gain/side arrays) — its
        in-place updates are then visible to every attached worker.
        """
        return self._packs[key].arrays(writeable=writeable)

    def release(self, key: str) -> None:
        """Close (and, as owner, unlink) one pack; missing keys are a no-op."""
        pack = self._packs.pop(key, None)
        if pack is not None:
            pack.close()

    def close(self) -> None:
        while self._packs:
            _, pack = self._packs.popitem()
            pack.close()

    def __contains__(self, key: object) -> bool:
        return key in self._packs

    def __enter__(self) -> "SharedArrayPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
