"""Baseline partitioners and the Table 3 resource model.

The registry exposes every partitioner behind one calling convention::

    result = get_partitioner("mondriaan-like")(graph, k=32, epsilon=0.05, seed=1)

Names mirror the paper's comparison set; ``*-like`` marks our
implementations of the closed tools' algorithm families (DESIGN.md §5).
"""

from __future__ import annotations

from typing import Callable

from ..api.registry import PARTITIONERS
from ..core.config import SHPConfig
from ..core.result import PartitionResult
from ..core.shp_2 import shp_2
from ..core.shp_k import shp_k
from ..hypergraph.bipartite import BipartiteGraph
from .label_propagation import label_propagation_partitioner
from .multilevel import MultilevelPartitioner, multilevel_partition
from .parkway_like import CoordinatorProfile, ParkwayLikePartitioner
from .resource_model import (
    GraphShape,
    RunEstimate,
    TEN_HOURS_MINUTES,
    calibrate_cost_model,
    estimate_parkway_like,
    estimate_shp,
    estimate_zoltan_like,
    expected_random_fanout,
)
from .simple import hash_partitioner, random_partitioner
from .spectral import spectral_partitioner
from .streaming import streaming_partitioner

__all__ = [
    "get_partitioner",
    "partitioner_names",
    "random_partitioner",
    "hash_partitioner",
    "streaming_partitioner",
    "label_propagation_partitioner",
    "MultilevelPartitioner",
    "multilevel_partition",
    "ParkwayLikePartitioner",
    "CoordinatorProfile",
    "spectral_partitioner",
    "GraphShape",
    "RunEstimate",
    "TEN_HOURS_MINUTES",
    "estimate_shp",
    "estimate_zoltan_like",
    "estimate_parkway_like",
    "expected_random_fanout",
    "calibrate_cost_model",
]

Partitioner = Callable[..., PartitionResult]

# Registration order is comparison-table order.  ``config`` names the
# declared dataclass an entry's keyword arguments build (the SHP family:
# JobSpec checks ``algorithm.options`` against it and the runner assembles
# it, instead of name checks); any other entry takes the named parameters
# of its callable.  ``engine_mode`` marks entries runnable on the
# vertex-centric engine.
PARTITIONERS.register("random")(random_partitioner)
PARTITIONERS.register("hash")(hash_partitioner)
PARTITIONERS.register("label-prop")(label_propagation_partitioner)
# Single-pass out-of-core warm start (HYPE-style neighborhood expansion);
# the first stage of the stream-then-refine pipeline.
PARTITIONERS.register("streaming")(streaming_partitioner)


@PARTITIONERS.register("shp-k", config=SHPConfig, engine_mode="k")
def _shp_k(graph: BipartiteGraph, k: int, epsilon: float = 0.05, seed: int = 0, **kw):
    return shp_k(graph, k, epsilon=epsilon, seed=seed, **kw)


@PARTITIONERS.register("shp-2", config=SHPConfig, engine_mode="2")
def _shp_2(graph: BipartiteGraph, k: int, epsilon: float = 0.05, seed: int = 0, **kw):
    return shp_2(graph, k, epsilon=epsilon, seed=seed, **kw)


def _multilevel(style: str):
    def run(graph: BipartiteGraph, k: int, epsilon: float = 0.05, seed: int = 0, **_):
        return multilevel_partition(graph, k, epsilon=epsilon, seed=seed, style=style)

    return run


PARTITIONERS.register("mondriaan-like")(_multilevel("mondriaan"))
PARTITIONERS.register("zoltan-like")(_multilevel("zoltan"))


@PARTITIONERS.register("parkway-like")
def _parkway(graph: BipartiteGraph, k: int, epsilon: float = 0.05, seed: int = 0, **_):
    return ParkwayLikePartitioner(k=k, epsilon=epsilon, seed=seed).partition(graph)


PARTITIONERS.register("spectral")(spectral_partitioner)


def partitioner_names() -> list[str]:
    """All registry names, in comparison-table order."""
    return PARTITIONERS.names()


def get_partitioner(name: str) -> Partitioner:
    """Look up a partitioner by registry name."""
    return PARTITIONERS.get(name)
