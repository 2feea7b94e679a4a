"""Per-superstep and per-job execution metrics.

Everything the paper's complexity analysis talks about is *measured* here:
messages sent (split into worker-local and remote), bytes, per-worker
compute operations, and per-worker memory high-water marks.  The benchmark
harness checks these measurements against the Section 3.3 bounds
(|E| messages in superstep 1, ≈ fanout·|E| in superstep 2, |V| in 3 and 4).

Two families of measurements coexist per superstep:

* **logical meters** (messages, ``bytes_local`` / ``bytes_remote``, ops,
  memory) — dtype-exact accounting of the protocol itself, identical on
  every backend for a given seed (the cross-backend parity contract);
* **physical meters** (``wire_bytes``, ``round_trip_seconds``) — what a
  networked backend actually moved and waited: real serialized bytes on
  the wire and master-observed barrier round-trip time.  In-process
  backends leave them at zero; the RPC backend fills them from its
  sockets.  See ``docs/running-distributed.md`` for how to read them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cluster import ClusterSpec, CostModel

__all__ = ["SuperstepMetrics", "JobMetrics"]


@dataclass
class SuperstepMetrics:
    """Measurements for one superstep."""

    superstep: int
    phase: str = ""
    ops_per_worker: np.ndarray = field(default_factory=lambda: np.zeros(0))
    messages_local: int = 0
    messages_remote: int = 0
    bytes_local: int = 0
    bytes_remote: int = 0
    remote_bytes_per_worker: np.ndarray = field(default_factory=lambda: np.zeros(0))
    messages_per_worker: np.ndarray = field(default_factory=lambda: np.zeros(0))
    memory_per_worker: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: peak transient kernel-buffer bytes per worker this superstep —
    #: scratch arrays a columnar kernel materializes and frees within one
    #: call (joins, entry expansions, candidate grids), reported via
    #: ``ctx.charge_transient``.  A logical meter: pure function of array
    #: sizes, identical across backends; the dict path reports zero (its
    #: per-vertex scratch is a few Python scalars).
    transient_bytes_per_worker: np.ndarray = field(default_factory=lambda: np.zeros(0))
    active_vertices: int = 0
    #: real serialized bytes this superstep moved over backend transport
    #: (frames sent + received by the master); zero on in-process backends.
    wire_bytes: int = 0
    #: master-observed barrier latency: first step dispatch to last worker
    #: reply, in seconds; zero on in-process backends.
    round_trip_seconds: float = 0.0

    @property
    def total_messages(self) -> int:
        return self.messages_local + self.messages_remote

    @property
    def total_bytes(self) -> int:
        return self.bytes_local + self.bytes_remote

    def modeled_seconds(self, model: CostModel) -> float:
        ops = float(self.ops_per_worker.max()) if self.ops_per_worker.size else 0.0
        msgs = float(self.messages_per_worker.max()) if self.messages_per_worker.size else 0.0
        net = (
            float(self.remote_bytes_per_worker.max())
            if self.remote_bytes_per_worker.size
            else 0.0
        )
        return model.superstep_seconds(ops, msgs, net)


@dataclass
class JobMetrics:
    """Aggregated measurements for a full vertex-centric job."""

    cluster: ClusterSpec
    supersteps: list[SuperstepMetrics] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: real serialized bytes of the final ``collect`` round trip, which
    #: follows the last superstep and so sits in no step's ``wire_bytes``.
    collect_wire_bytes: int = 0

    def add(self, step: SuperstepMetrics) -> None:
        self.supersteps.append(step)

    @property
    def num_supersteps(self) -> int:
        return len(self.supersteps)

    @property
    def total_messages(self) -> int:
        return sum(s.total_messages for s in self.supersteps)

    @property
    def total_remote_bytes(self) -> int:
        return sum(s.bytes_remote for s in self.supersteps)

    @property
    def total_wire_bytes(self) -> int:
        """Real transport bytes of the whole job after ``init``: every
        superstep plus the final collect (zero for in-process)."""
        return sum(s.wire_bytes for s in self.supersteps) + self.collect_wire_bytes

    @property
    def total_round_trip_seconds(self) -> float:
        """Summed master-observed barrier round-trip time (RPC backend)."""
        return sum(s.round_trip_seconds for s in self.supersteps)

    def peak_worker_memory(self) -> float:
        peaks = [
            float(s.memory_per_worker.max())
            for s in self.supersteps
            if s.memory_per_worker.size
        ]
        return max(peaks) if peaks else 0.0

    def peak_transient_bytes(self) -> float:
        """High-water mark of transient kernel scratch across all workers.

        Complements :meth:`peak_worker_memory` (resident state) with the
        short-lived buffers columnar kernels allocate per call; surfaced in
        run manifests alongside ``wire_bytes``.
        """
        peaks = [
            float(s.transient_bytes_per_worker.max())
            for s in self.supersteps
            if s.transient_bytes_per_worker.size
        ]
        return max(peaks) if peaks else 0.0

    def modeled_seconds(self, model: CostModel) -> float:
        """Modeled cluster wall-clock for the whole job."""
        return sum(s.modeled_seconds(model) for s in self.supersteps)

    def modeled_total_machine_seconds(self, model: CostModel) -> float:
        """Modeled time × machines (the paper's "total time" axis)."""
        return self.modeled_seconds(model) * self.cluster.num_workers

    def by_phase(self) -> dict[str, dict[str, float]]:
        """Aggregate message/byte totals per protocol phase."""
        out: dict[str, dict[str, float]] = {}
        for step in self.supersteps:
            agg = out.setdefault(
                step.phase,
                {"messages": 0.0, "bytes": 0.0, "wire_bytes": 0.0, "count": 0.0},
            )
            agg["messages"] += step.total_messages
            agg["bytes"] += step.total_bytes
            agg["wire_bytes"] += step.wire_bytes
            agg["count"] += 1
        return out
