"""Cluster specification and wall-clock cost model.

The paper's scalability experiments (Section 4.2.3) ran on 4–16 machines
(Intel Xeon E5-2660, 144 GB RAM) in a Giraph cluster.  We execute the same
vertex-centric protocol in-process and *measure* compute operations,
messages, and memory per worker; this module converts those measurements
into modeled wall-clock time so the complexity shapes of Figure 5 and
Table 3 can be reproduced without a physical cluster (DESIGN.md Section 5).

The model:

    superstep_time = max_w(ops_w · sec_per_op + msgs_w · sec_per_message)
                   + max_w(remote_bytes_w) / bytes_per_sec
                   + barrier_sec

Compute parallelizes across workers (the max); network time grows with the
per-worker remote traffic, which is why adding machines yields sublinear
speedup exactly as in Figure 5b.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api.spec import ExecutionSpec

__all__ = ["MachineSpec", "ClusterSpec", "CostModel", "PAPER_MACHINE"]


@dataclass(frozen=True)
class MachineSpec:
    """One worker machine."""

    memory_bytes: int = 144 * 1024**3  # the paper's 144 GB Xeons
    cores: int = 16

    @property
    def memory_gb(self) -> float:
        return self.memory_bytes / 1024**3


PAPER_MACHINE = MachineSpec()


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of workers."""

    num_workers: int = ExecutionSpec.workers  # the spec key's default, read from its declaration
    machine: MachineSpec = PAPER_MACHINE

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be at least 1")

    @property
    def total_memory_bytes(self) -> int:
        return self.num_workers * self.machine.memory_bytes

    def with_workers(self, num_workers: int) -> "ClusterSpec":
        """Same machine model, different worker count (speedup sweeps)."""
        return ClusterSpec(num_workers=num_workers, machine=self.machine)


@dataclass(frozen=True)
class CostModel:
    """Calibratable constants mapping measured work to modeled seconds.

    Defaults approximate a JVM/Giraph deployment (the paper's substrate)
    with its built-in optimizations — byte-array message stores, combiners,
    local-read shortcuts — so that modeled times land in the paper's
    minutes-to-hours range; they can be re-fit from measured in-process runs
    via :func:`repro.baselines.resource_model.calibrate_cost_model`.
    """

    sec_per_op: float = 4e-9  # one vertex-program operation
    sec_per_message: float = 9e-9  # per combined/serialized message entry
    bytes_per_sec: float = 2.0e9  # effective per-worker network bandwidth
    barrier_sec: float = 0.3  # synchronization barrier overhead

    def superstep_seconds(
        self,
        max_worker_ops: float,
        max_worker_messages: float,
        max_worker_remote_bytes: float,
    ) -> float:
        compute = max_worker_ops * self.sec_per_op
        messaging = max_worker_messages * self.sec_per_message
        network = max_worker_remote_bytes / self.bytes_per_sec
        return compute + messaging + network + self.barrier_sec
