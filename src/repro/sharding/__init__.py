"""Storage-sharding simulator (Section 4.2.1, Figure 4)."""

from .latency import LatencyModel, percentile_curve
from .simulator import ReplayResult, latency_by_fanout, replay_traffic
from .store import ShardedKVStore

__all__ = [
    "LatencyModel",
    "percentile_curve",
    "ShardedKVStore",
    "ReplayResult",
    "replay_traffic",
    "latency_by_fanout",
]
