"""Vertex-centric (Giraph-like) execution substrate with metered resources.

Execution is backend-pluggable: :class:`SimulatedBackend` runs every worker
in-process (deterministic, instant startup), :class:`MultiprocessBackend`
runs one OS process per worker over shared-memory graph arrays, and
:class:`RpcBackend` coordinates worker processes over TCP (auto-spawned
localhost peers or remote ``repro rpc-worker`` hosts) with checkpointed
superstep retry on worker failure.  All produce bit-identical vertex
states for a given seed — see ``docs/architecture.md``.
"""

from .backend import (
    Backend,
    SimulatedBackend,
    backend_names,
    resolve_backend,
    resolve_combiner,
)
from .cluster import PAPER_MACHINE, ClusterSpec, CostModel, MachineSpec
from .engine import (
    BatchContext,
    BatchVertexProgram,
    GiraphEngine,
    JobResult,
    MasterProgram,
    counter_random_array,
)
from .messages import Combiner, MessageBatch, MessageSchema, SumCombiner
from .metrics import JobMetrics, SuperstepMetrics


def __getattr__(name):
    # Process/network backends are re-exported lazily so that sim-only
    # imports never pay for multiprocessing or socket machinery.
    if name == "MultiprocessBackend":
        from .backend_mp import MultiprocessBackend

        return MultiprocessBackend
    if name == "RpcBackend":
        from .backend_rpc import RpcBackend

        return RpcBackend
    if name == "serve_worker":
        from .backend_rpc import serve_worker

        return serve_worker
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "MachineSpec",
    "ClusterSpec",
    "CostModel",
    "PAPER_MACHINE",
    "Backend",
    "SimulatedBackend",
    "MultiprocessBackend",
    "RpcBackend",
    "serve_worker",
    "backend_names",
    "resolve_backend",
    "resolve_combiner",
    "GiraphEngine",
    "JobResult",
    "BatchContext",
    "BatchVertexProgram",
    "MasterProgram",
    "counter_random_array",
    "Combiner",
    "SumCombiner",
    "MessageSchema",
    "MessageBatch",
    "JobMetrics",
    "SuperstepMetrics",
]
