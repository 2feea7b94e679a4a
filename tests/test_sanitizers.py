"""Runtime sanitizer ("reprosan") tests: unit, seeded race, parity.

Three layers:

* unit tests drive the :class:`~repro.analysis.sanitizers.Sanitizer`
  probe directly (interval overlap, coverage);
* an integration test seeds a *true* write-write race through a real
  :class:`~repro.core.parallel_refine.ParallelGainPool` — a duplicated
  rank straddling two blocks — and asserts the sanitizer catches it at
  the merge barrier;
* a parity grid re-runs the parallel refiner under ``REPRO_SAN=1`` and
  pins that instrumentation never changes the bits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import shp_2
from repro.analysis import sanitizers
from repro.analysis.sanitizers import Sanitizer, SanitizerError, sanitized
from repro.core.parallel_refine import ParallelGainPool


@pytest.fixture(autouse=True)
def _fresh_sanitizer_state(monkeypatch):
    # The suite must behave identically with and without REPRO_SAN=1 in
    # the inherited environment (CI runs it both ways): start every test
    # from "off" so findings never leak across tests through the global.
    monkeypatch.setattr(sanitizers, "_ACTIVE", None)
    monkeypatch.delenv(sanitizers.ENV_FLAG, raising=False)


# ----------------------------------------------------------------------
# unit: shared-write disjointness
# ----------------------------------------------------------------------

def echo(lo, hi, rank_lo, rank_hi, mono=True):
    return (lo, hi, rank_lo, rank_hi, mono)


class TestGainProbes:
    def test_clean_dispatch_and_barrier(self):
        san = Sanitizer(strict=True)
        bounds = np.array([0, 8, 16])
        san.gain_dispatch(bounds)
        san.gain_barrier(bounds, [echo(0, 8, 0, 8), echo(8, 16, 8, 16)])
        assert san.findings == []

    def test_overlapping_intervals_are_a_race(self):
        san = Sanitizer(strict=True)
        bounds = np.array([0, 8, 16])
        with pytest.raises(SanitizerError, match="write-write race"):
            san.gain_barrier(bounds, [echo(0, 8, 0, 8), echo(8, 16, 7, 15)])
        assert san.findings[0].code == "SAN007"

    def test_non_monotone_block_ranks_flagged(self):
        san = Sanitizer(strict=True)
        bounds = np.array([0, 4])
        with pytest.raises(SanitizerError, match="strictly"):
            san.gain_barrier(bounds, [echo(0, 4, 0, 4, mono=False)])

    def test_bounds_echo_mismatch_flagged(self):
        san = Sanitizer(strict=True)
        bounds = np.array([0, 8])
        with pytest.raises(SanitizerError, match="disagree on the write window"):
            san.gain_barrier(bounds, [echo(0, 6, 0, 6)])

    def test_descending_bounds_flagged_at_dispatch(self):
        san = Sanitizer(strict=True)
        with pytest.raises(SanitizerError, match="not ascending"):
            san.gain_dispatch(np.array([0, 9, 4]))

    def test_non_strict_collects_instead_of_raising(self):
        san = Sanitizer(strict=False)
        san.gain_barrier(np.array([0, 8, 16]),
                         [echo(0, 8, 0, 8), echo(8, 16, 7, 15)])
        assert [f.code for f in san.findings] == ["SAN007"]

    def test_uninstrumented_worker_echo_is_skipped(self):
        san = Sanitizer(strict=True)
        bounds = np.array([0, 8, 16])
        san.gain_barrier(bounds, [None, echo(8, 16, 8, 16)])
        assert san.findings == []


# ----------------------------------------------------------------------
# module switch + report plumbing
# ----------------------------------------------------------------------

class TestSwitch:
    def test_sanitized_context_restores(self):
        import os

        assert sanitizers.current() is None
        with sanitized() as san:
            assert sanitizers.current() is san
            assert os.environ[sanitizers.ENV_FLAG] == "1"
        assert sanitizers.current() is None
        assert sanitizers.ENV_FLAG not in os.environ

    def test_report_renders_through_lint_surface(self):
        with sanitized(strict=False) as san:
            san.gain_barrier(np.array([0, 4, 8]),
                             [echo(0, 4, 0, 4), echo(4, 8, 3, 8)])
            report = sanitizers.sanitizer_report()
            assert report.exit_code == 1
            assert "SAN007" in report.render_human()
            payload = report.to_json()
            assert payload["findings"][0]["code"] == "SAN007"

    def test_merge_runtime_findings_appends(self):
        from repro.analysis.core import LintReport

        with sanitized(strict=False) as san:
            san.gain_dispatch(np.array([2, 4, 8]))  # collected, not raised
            static = LintReport(findings=[], files_checked=3, checks_run=("REP001",))
            merged = sanitizers.merge_runtime_findings(static)
            assert [f.code for f in merged.findings] == ["SAN007"]
            assert merged.checks_run == ("REP001", "SAN007")


# ----------------------------------------------------------------------
# integration: a seeded true race through a real pool
# ----------------------------------------------------------------------

def _level_arrays(work_buf: np.ndarray) -> dict[str, np.ndarray]:
    """Minimal level segment: zero-degree ranks make every gain 0.0, so
    the kernel is trivial and only the scatter/echo machinery is live."""
    n = int(work_buf.max()) + 1 if work_buf.size else 1
    return {
        "work_buf": work_buf.astype(np.int64),
        "rank_indptr": np.zeros(n + 1, dtype=np.int64),
        "gm_vidx": np.zeros(0, dtype=np.int64),
        "slot_value": np.zeros((1, 2), dtype=np.float64),
        "gain_cache": np.zeros(n, dtype=np.float64),
    }


class TestSeededRace:
    def test_duplicate_rank_across_blocks_is_detected(self):
        # Rank 7 appears at the end of block 0 AND the start of block 1:
        # two workers scatter into gain_cache[7] in the same window.
        work_buf = np.concatenate([np.arange(8), np.arange(7, 15)])
        with sanitized(strict=True):
            pool = ParallelGainPool(2)
            try:
                pool.publish_level(_level_arrays(work_buf))
                with pytest.raises(SanitizerError, match="write-write race"):
                    pool.compute_gains(np.array([0, 8, 16], dtype=np.int64))
                # The violation fires at the barrier, after the protocol
                # round-trips: the pool is still in step and can clean up.
                pool.drop_level()
            finally:
                pool.close()

    def test_clean_blocks_pass_with_probes_advancing(self):
        work_buf = np.arange(16)
        before = sanitizers.probe_counts()["gain_dispatch"]
        with sanitized(strict=True):
            pool = ParallelGainPool(2)
            try:
                pool.publish_level(_level_arrays(work_buf))
                pool.compute_gains(np.array([0, 8, 16], dtype=np.int64))
                pool.drop_level()
            finally:
                pool.close()
            assert sanitizers.collected_findings() == []
        assert sanitizers.probe_counts()["gain_dispatch"] == before + 1


# ----------------------------------------------------------------------
# parity: REPRO_SAN=1 never changes the bits
# ----------------------------------------------------------------------

def random_bipartite(seed: int):
    from repro.hypergraph import BipartiteGraph

    rng = np.random.default_rng(seed)
    q = rng.integers(0, 200, 1600)
    d = rng.integers(0, 350, 1600)
    return BipartiteGraph.from_edges(q, d, num_queries=200, num_data=350)


class TestSanitizedParity:
    @pytest.fixture(autouse=True)
    def _force_parallel_dispatch(self, monkeypatch):
        monkeypatch.setattr("repro.core.level_fuse.PARALLEL_MIN_RANKS", 1)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_bitwise_parity_under_sanitizer(self, workers):
        graph = random_bipartite(11)
        serial = shp_2(graph, 4, seed=3)
        before = sanitizers.probe_counts()["gain_dispatch"]
        with sanitized(strict=True):
            parallel = shp_2(graph, 4, seed=3, refine_workers=workers)
            assert sanitizers.collected_findings() == []
        # The sanitizer actually watched the run...
        assert sanitizers.probe_counts()["gain_dispatch"] > before
        # ...and never perturbed it.
        assert np.array_equal(serial.assignment, parallel.assignment)
