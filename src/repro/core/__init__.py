"""SHP core: the paper's contribution (Algorithm 1 + Section 3.4 + Section 5)."""

from .config import SHPConfig
from .gains import best_moves, data_query_matrix, move_gains_dense
from .histograms import GainBinning
from .level_fuse import LevelGroup, refine_level_fused
from .incremental import (
    IncrementalOutcome,
    budgeted_incremental_update,
    churn,
    incremental_update,
)
from .multidim import MultiDimResult, merge_buckets_balanced, partition_multidim
from .persistence import load_assignment, load_result, save_assignment, save_result
from .partition import (
    balanced_random_assignment,
    bucket_sizes,
    capacities,
    child_capacities,
    random_assignment,
    validate_assignment,
    weighted_capacities,
)
from .refinement import (
    RefineOutcome,
    build_matcher,
    build_objective,
    enforce_weighted_caps,
    refine,
)
from .result import IterationStats, PartitionResult
from .shp_2 import SHP2Partitioner, shp_2
from .shp_k import SHPKPartitioner, shp_k
from .swaps import HistogramMatcher, SwapDecision, UniformMatcher

__all__ = [
    "SHPConfig",
    "SHPKPartitioner",
    "SHP2Partitioner",
    "shp_k",
    "shp_2",
    "PartitionResult",
    "IterationStats",
    "GainBinning",
    "HistogramMatcher",
    "UniformMatcher",
    "SwapDecision",
    "RefineOutcome",
    "refine",
    "build_objective",
    "build_matcher",
    "enforce_weighted_caps",
    "best_moves",
    "move_gains_dense",
    "data_query_matrix",
    "LevelGroup",
    "refine_level_fused",
    "random_assignment",
    "balanced_random_assignment",
    "bucket_sizes",
    "capacities",
    "child_capacities",
    "weighted_capacities",
    "validate_assignment",
    "save_result",
    "load_result",
    "save_assignment",
    "load_assignment",
    "incremental_update",
    "budgeted_incremental_update",
    "IncrementalOutcome",
    "churn",
    "partition_multidim",
    "merge_buckets_balanced",
    "MultiDimResult",
]
