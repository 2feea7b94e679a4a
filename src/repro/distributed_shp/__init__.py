"""Distributed SHP: the 4-superstep vertex-centric job (Section 3.2)."""

from .columnar import SHPColumnarProgram
from .combiners import ShpDeltaCombiner
from .job import DistributedSHP, DistributedSHPResult
from .schemas import DELTA_SCHEMA, NDATA_SCHEMA, NET_DELTA_SCHEMA

__all__ = [
    "DistributedSHP",
    "DistributedSHPResult",
    "SHPColumnarProgram",
    "ShpDeltaCombiner",
    "DELTA_SCHEMA",
    "NDATA_SCHEMA",
    "NET_DELTA_SCHEMA",
]
