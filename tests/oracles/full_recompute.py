"""S3's reference: full recompute.

``SHPColumnarProgram`` recomputes the proposal of *stale* data vertices
only (Giraph's activity rule).  The reference is the same kernel with
every vertex stale — what the job computed before the rule existed: the
production code with a full stale set, not a second copy of it, so the
only thing the differential (``tests/test_s3_activity.py``) can disagree
on is the rule.  The kernel's own arithmetic is pinned separately, by the
per-vertex twin in :mod:`oracles.shp_dict`.
"""

from __future__ import annotations

from repro.distributed_shp import SHPColumnarProgram


class FullRecomputeProgram(SHPColumnarProgram):
    """``SHPColumnarProgram`` that marks every vertex stale before each S3."""

    def _s3_propose(self, ctx, part, inbox) -> None:
        part.stale[:] = True
        super()._s3_propose(ctx, part, inbox)
