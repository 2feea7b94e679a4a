"""Tests for the dataset registry, graph statistics, and bench utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import format_series, format_table
from repro.hypergraph import (
    DATASETS,
    dataset_names,
    degree_histogram,
    gini_coefficient,
    graph_stats,
    load_dataset,
)


class TestDatasets:
    def test_registry_covers_table1(self):
        expected = {
            "email-Enron", "soc-Epinions", "web-Stanford", "web-BerkStan",
            "soc-Pokec", "soc-LJ", "FB-10M", "FB-50M", "FB-2B", "FB-5B", "FB-10B",
        }
        assert set(dataset_names()) == expected

    def test_published_sizes_recorded(self):
        spec = DATASETS["soc-LJ"]
        assert spec.paper_q == 3_392_317
        assert spec.paper_d == 4_847_571
        assert spec.paper_e == 68_077_638

    @pytest.mark.parametrize("name", ["email-Enron", "web-Stanford", "FB-10M"])
    def test_small_scale_builds(self, name):
        graph = load_dataset(name, scale=0.02, seed=1)
        graph.validate()
        assert graph.name == name
        assert graph.num_data > 100

    def test_scale_grows_size(self):
        small = load_dataset("email-Enron", scale=0.02, seed=1)
        large = load_dataset("email-Enron", scale=0.08, seed=1)
        assert large.num_edges > small.num_edges

    def test_deterministic(self):
        a = load_dataset("soc-Epinions", scale=0.02, seed=5)
        b = load_dataset("soc-Epinions", scale=0.02, seed=5)
        assert np.array_equal(a.q_indices, b.q_indices)

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            load_dataset("email-Exxon")


class TestStats:
    def test_graph_stats_row(self, tiny_graph):
        stats = graph_stats(tiny_graph)
        row = stats.row()
        assert row["|Q|"] == 3
        assert row["|D|"] == 6
        assert row["|E|"] == 10
        assert row["max deg(q)"] == 4

    def test_gini_uniform_zero(self):
        assert gini_coefficient(np.full(100, 7.0)) < 0.01

    def test_gini_skewed_high(self):
        values = np.zeros(100)
        values[0] = 100.0
        assert gini_coefficient(values) > 0.9

    def test_gini_empty(self):
        assert gini_coefficient(np.array([])) == 0.0

    def test_degree_histogram_covers_all(self):
        degrees = np.array([1, 2, 3, 50, 100])
        bins = degree_histogram(degrees)
        assert sum(c for _, _, c in bins) == degrees.size

    def test_degree_histogram_empty(self):
        assert degree_histogram(np.array([])) == []


class TestBenchUtils:
    def test_format_table_alignment(self):
        text = format_table(
            [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(empty)" in format_table([])

    def test_format_table_column_subset(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_format_series(self):
        text = format_series("k", [2, 8], {"fanout": [1.5, 3.2]})
        assert "k" in text and "fanout" in text
        assert "3.2" in text


class TestClusteringValidation:
    def test_darwini_has_more_triangles_than_random(self):
        """The Darwini recipe's purpose: realistic clustering coefficients."""
        import numpy as np

        from repro.hypergraph import friendship_clustering_sample
        from repro.hypergraph.darwini import darwini_friendship_edges

        u, v = darwini_friendship_edges(2000, avg_degree=12, clustering=0.5, seed=2)
        cc_darwini = friendship_clustering_sample(u, v, 2000, seed=3)

        # Degree-matched random rewiring: shuffle one endpoint column.
        rng = np.random.default_rng(4)
        v_shuffled = rng.permutation(v)
        keep = u != v_shuffled
        cc_random = friendship_clustering_sample(u[keep], v_shuffled[keep], 2000, seed=3)
        assert cc_darwini > 3 * max(cc_random, 1e-4)

    def test_clustering_zero_without_triangles(self):
        import numpy as np

        from repro.hypergraph import friendship_clustering_sample

        # A star has no triangles.
        u = np.zeros(5, dtype=np.int64)
        v = np.arange(1, 6, dtype=np.int64)
        assert friendship_clustering_sample(u, v, 6) == 0.0
