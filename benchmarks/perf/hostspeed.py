"""Host-speed probe: how much slower than nominal is this machine right now?

The build VM shares its cores.  Its speed drifts by 1.2-2x for tens of
seconds to minutes at a time with no steal showing in ``/proc/stat`` and
CPU time equal to wall time — the cores themselves run slower — so a
job's wall time says as much about the neighbours as about the program,
and neither more reps, longer runs, nor min / quartile / median of the
reps removes a phase that outlasts a run (README "Noise calibration and
bounds" has the measurements).  What does track the phase is a fixed
piece of work timed right next to the job: :func:`probe` runs a numpy +
interpreter kernel that never changes with the program, and
:func:`timed` brackets a block with two probes and reports the block's
wall time together with the host's slowdown during it.  Dividing the one
by the other gives the time the block would have taken on a host that
runs the probe in :data:`PROBE_REF_S` — the *host-corrected* seconds the
end-to-end timings are reported in.
"""

from __future__ import annotations

import contextlib
import time
from typing import Iterator

import numpy as np

#: Seconds :func:`probe` takes on the quiet build VM (its 5th percentile
#: over 20 minutes of sampling, 0.081 s).  Only a scale: on a quiet host
#: corrected seconds then read like wall seconds.
PROBE_REF_S = 0.080


def probe() -> float:
    """Seconds the fixed kernel takes now: sort / bincount / gather over
    1.6 MB arrays, as the partitioner's kernels do, plus a bytecode loop."""
    start = time.perf_counter()
    a = np.arange(200_000, dtype=np.int64)
    for i in range(12):
        idx = (a * 7919 + i) % a.size
        np.bincount(idx % 64, minlength=64)
        np.argsort(idx, kind="stable")
    t = 0
    for i in range(90_000):
        t += i & 3
    return time.perf_counter() - start


@contextlib.contextmanager
def timed() -> Iterator[dict]:
    """Time a block between two probes.

    Yields a dict that holds, once the block has ended, ``wall_s`` (the
    block alone, probes excluded) and ``slowdown`` (mean of the two
    probes / :data:`PROBE_REF_S`).
    """
    clock: dict = {}
    before = probe()
    start = time.perf_counter()
    try:
        yield clock
    finally:
        clock["wall_s"] = time.perf_counter() - start
        clock["slowdown"] = (before + probe()) / 2.0 / PROBE_REF_S
