"""Runtime sanitizer ("reprosan"): TSan-lite for the parallel refiner.

The static rule REP007 proves the *source* respects the
disjoint-ascending-slice merge invariant; this module checks the same
invariant on *live runs*.  One probe:

* **Shared-write disjointness** — at every ``ParallelGainPool.compute_gains``
  dispatch the master validates the block bounds (ascending, covering),
  and each worker echoes the (array, offset, length) interval it actually
  scattered into ``gain_cache`` plus a strict-monotonicity bit for its
  block.  At the merge barrier the master checks the echoed intervals
  against the dispatched bounds, pairwise disjointness across workers,
  and full coverage of the dirty set — any overlap is a write-write race
  that would silently corrupt gains.

(The wire needs no probe: :mod:`repro.distributed.wire` closes a socket
whose frame stopped part-way, so a desynchronized stream cannot be read
again whether or not a sanitizer is on.)

Activation: the ``REPRO_SAN=1`` environment variable (read at import, so
spawned workers inherit it), or :func:`enable` / ``repro run --sanitize``
/ ``repro lint --san``.  When disabled, :func:`current` returns ``None``
and the instrumented call site takes a single-branch early exit — the
default path carries no sanitizer work at all (asserted by the overhead
guard in ``benchmarks/bench_shp2_levels.py``).

Violations are recorded as :class:`~repro.analysis.core.Finding`-compatible
records (code ``SAN007``, mirroring its static twin) and rendered through
the ordinary :class:`~repro.analysis.core.LintReport`, so static and
runtime findings share one report surface; in strict mode (the default)
they also raise :class:`SanitizerError` at the violation site.

This module stays import-light on purpose (stdlib only at module level;
``Finding`` is imported lazily) so the hot module that hooks into it —
``core/parallel_refine.py`` — can reach it without dragging the analysis
framework into its import graph.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import Finding, LintReport

__all__ = [
    "SanitizerError",
    "Sanitizer",
    "enable",
    "disable",
    "current",
    "sanitized",
    "collected_findings",
    "sanitizer_report",
    "probe_counts",
]

ENV_FLAG = "REPRO_SAN"

#: Runtime-finding code; the numeric suffix names the static twin.
SAN_SHARED_WRITE = ("SAN007", "san-shared-write")

#: Instrumentation counters, advanced only inside an active sanitizer —
#: the overhead guard asserts they stay zero on sanitizer-off runs.
_PROBES = {"gain_dispatch": 0}


class SanitizerError(AssertionError):
    """A runtime invariant violation detected by the sanitizer."""


class Sanitizer:
    """One process's sanitizer state: the findings so far.

    Master-side gain checks run at the ``compute_gains`` merge barrier.
    ``strict`` (the default) raises :class:`SanitizerError` at the
    violation site; either way the finding is recorded for
    :func:`sanitizer_report`.
    """

    def __init__(self, strict: bool = True):
        self.strict = strict
        self.findings: list[Finding] = []

    # -- reporting -----------------------------------------------------
    def _violation(self, code_name: tuple[str, str], where: str, message: str) -> None:
        from .core import Finding

        code, name = code_name
        finding = Finding(
            code=code, name=name, severity="error",
            path=where, line=0, col=0, message=message,
        )
        self.findings.append(finding)
        if self.strict:
            raise SanitizerError(finding.render())

    # -- shared-write disjointness (master side) -----------------------
    def gain_dispatch(self, bounds: Any) -> None:
        """Validate block bounds at dispatch: ascending and zero-based."""
        _PROBES["gain_dispatch"] += 1
        where = "<REPRO_SAN:gain-dispatch>"
        pairs = [(int(bounds[i]), int(bounds[i + 1])) for i in range(len(bounds) - 1)]
        if int(bounds[0]) != 0:
            self._violation(
                SAN_SHARED_WRITE, where,
                f"dispatch bounds start at {int(bounds[0])}, not 0: "
                "the leading work-buffer ranks would never be evaluated",
            )
        if any(lo > hi for lo, hi in pairs):
            self._violation(
                SAN_SHARED_WRITE, where,
                f"dispatch bounds are not ascending: {[int(b) for b in bounds]} — "
                "blocks must be ascending contiguous chunks of the work buffer",
            )

    def gain_barrier(self, bounds: Any, echoes: list[Any]) -> None:
        """Check worker-echoed write intervals at the merge barrier.

        Each echo is ``(lo, hi, rank_lo, rank_hi, mono)`` — the block
        bounds the worker actually used, the half-open interval of
        ``gain_cache`` offsets it scattered into, and whether its block's
        ranks were strictly increasing — or ``None`` for an
        uninstrumented worker (skipped).
        """
        where = "<REPRO_SAN:gain-barrier>"
        intervals: list[tuple[int, int, int]] = []  # (rank_lo, rank_hi, worker)
        for worker_id, echo in enumerate(echoes):
            if echo is None:
                continue
            lo, hi, rank_lo, rank_hi, mono = echo
            want = (int(bounds[worker_id]), int(bounds[worker_id + 1]))
            if (lo, hi) != want:
                self._violation(
                    SAN_SHARED_WRITE, where,
                    f"worker {worker_id} evaluated block {(lo, hi)} but was "
                    f"dispatched {want}: master and worker disagree on the "
                    "write window",
                )
            if lo == hi:
                continue
            if not mono:
                self._violation(
                    SAN_SHARED_WRITE, where,
                    f"worker {worker_id}'s block ranks are not strictly "
                    "increasing: duplicate or unsorted ranks make the "
                    "gain_cache scatter order-dependent",
                )
            intervals.append((rank_lo, rank_hi, worker_id))
        for (_, prev_hi, prev_w), (cur_lo, _, cur_w) in zip(intervals, intervals[1:]):
            if cur_lo < prev_hi:
                self._violation(
                    SAN_SHARED_WRITE, where,
                    f"write-write race: workers {prev_w} and {cur_w} scattered "
                    f"overlapping gain_cache intervals "
                    f"([..,{prev_hi}) vs [{cur_lo},..)) in the same dispatch "
                    "window — the merge is no longer deterministic",
                )
        covered = sum(int(bounds[i + 1]) - int(bounds[i]) for i in range(len(bounds) - 1))
        if covered != int(bounds[-1]):
            self._violation(
                SAN_SHARED_WRITE, where,
                f"dispatch covers {covered} of {int(bounds[-1])} work-buffer "
                "ranks: blocks must partition the dirty set exactly",
            )


# ----------------------------------------------------------------------
# Module-level switch
# ----------------------------------------------------------------------

_ACTIVE: Sanitizer | None = None


def current() -> Sanitizer | None:
    """The active sanitizer, or ``None`` (the default, zero-cost path)."""
    return _ACTIVE


def enable(strict: bool = True) -> Sanitizer:
    """Turn the sanitizer on for this process *and its future workers*.

    Sets ``REPRO_SAN=1`` in the environment so both fork- and
    spawn-started worker processes instrument themselves too.
    """
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = Sanitizer(strict=strict)
    else:
        _ACTIVE.strict = strict
    os.environ[ENV_FLAG] = "1"
    return _ACTIVE


def disable() -> None:
    """Turn the sanitizer off and drop its state (counters are kept)."""
    global _ACTIVE
    _ACTIVE = None
    os.environ.pop(ENV_FLAG, None)


class sanitized:
    """Context manager: ``with sanitized():`` enables, restores on exit."""

    def __init__(self, strict: bool = True):
        self.strict = strict
        self._prev: Sanitizer | None = None

    def __enter__(self) -> Sanitizer:
        self._prev = _ACTIVE
        return enable(strict=self.strict)

    def __exit__(self, *exc_info: object) -> None:
        global _ACTIVE
        _ACTIVE = self._prev
        if _ACTIVE is None:
            os.environ.pop(ENV_FLAG, None)


def collected_findings() -> list[Finding]:
    """Runtime findings recorded so far in this process (may be empty)."""
    return list(_ACTIVE.findings) if _ACTIVE is not None else []


def sanitizer_report() -> LintReport:
    """The runtime findings as an ordinary :class:`LintReport`."""
    from .core import LintReport

    findings = collected_findings()
    return LintReport(
        findings=findings,
        files_checked=0,
        checks_run=(SAN_SHARED_WRITE[0],),
    )


def probe_counts() -> dict[str, int]:
    """Instrumentation counters (for the sanitizer-off overhead guard)."""
    return dict(_PROBES)


def _reset_probes() -> None:
    for key in _PROBES:
        _PROBES[key] = 0


def worker_echo(lo: int, hi: int, ranks: Any) -> tuple[int, int, int, int, bool]:
    """Worker-side ``ok`` payload of a sanitized ``gains`` reply.

    Computed from the worker's *own view* of the shared work buffer, so a
    master/worker disagreement (stale bounds, torn segment) is visible at
    the barrier instead of corrupting gains silently.
    """
    if len(ranks) == 0:
        return (lo, hi, 0, 0, True)
    rank_lo = int(ranks[0])
    rank_hi = int(ranks[-1]) + 1
    mono = bool((ranks[1:] > ranks[:-1]).all()) if len(ranks) > 1 else True
    return (lo, hi, rank_lo, rank_hi, mono)


# Spawn-started workers (and any process launched with REPRO_SAN=1 in the
# environment) instrument themselves on import.
if os.environ.get(ENV_FLAG, "").strip() not in ("", "0"):
    enable()


def merge_runtime_findings(report: LintReport) -> LintReport:
    """Static report + this process's runtime findings, one surface.

    Used by ``repro lint --san``: whatever the current process's sanitizer
    observed (e.g. a preceding ``repro run --sanitize`` in the same
    interpreter, or a test harness) is appended to the static findings.
    """
    from .core import LintReport

    runtime = collected_findings()
    if not runtime:
        return report
    return LintReport(
        findings=list(report.findings) + runtime,
        files_checked=report.files_checked,
        checks_run=tuple(report.checks_run) + (SAN_SHARED_WRITE[0],),
    )
