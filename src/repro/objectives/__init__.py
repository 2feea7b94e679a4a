"""Objectives (Section 3.1): p-fanout family, clique-net, and metrics."""

from __future__ import annotations

from ..api.registry import OBJECTIVES
from .base import SeparableObjective
from .cliquenet import CliqueNetObjective
from .evaluate import (
    PartitionQuality,
    objective_value,
    average_fanout,
    average_pfanout,
    bucket_counts,
    compact_cell_sums,
    evaluate_partition,
    hyperedge_cut,
    imbalance,
    soed,
    weighted_edge_cut,
)
from .pfanout import FanoutObjective, PFanoutObjective, ScaledPFanout

__all__ = [
    "SeparableObjective",
    "PFanoutObjective",
    "FanoutObjective",
    "ScaledPFanout",
    "CliqueNetObjective",
    "get_objective",
    "bucket_counts",
    "compact_cell_sums",
    "objective_value",
    "average_fanout",
    "average_pfanout",
    "soed",
    "hyperedge_cut",
    "weighted_edge_cut",
    "imbalance",
    "PartitionQuality",
    "evaluate_partition",
]


# Factories take the fanout probability ``p`` (ignored where meaningless)
# so one calling convention serves the whole family.
@OBJECTIVES.register("pfanout", aliases=("probabilistic-fanout",))
def _pfanout(p: float = 0.5) -> SeparableObjective:
    return PFanoutObjective(p=p)


@OBJECTIVES.register("fanout")
def _fanout(p: float = 0.5) -> SeparableObjective:
    return FanoutObjective()


@OBJECTIVES.register("cliquenet", aliases=("clique-net", "edge-cut", "weighted-edge-cut"))
def _cliquenet(p: float = 0.5) -> SeparableObjective:
    return CliqueNetObjective()


def get_objective(name: str, p: float = 0.5) -> SeparableObjective:
    """Objective registry lookup.

    ``pfanout`` (default p = 0.5, the paper's recommended setting),
    ``fanout`` (p = 1, direct fanout optimization), and ``cliquenet``
    (the exact p → 0 limit) — plus any objective registered into
    :data:`repro.api.registry.OBJECTIVES`.
    """
    return OBJECTIVES.get(name)(p=p)
