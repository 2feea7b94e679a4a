"""Reference implementations the suite compares production code against.

* :mod:`oracles.per_vertex` — the per-vertex ``compute(ctx, vid, state,
  messages)`` programming model (Giraph's), as an adapter onto the engine's
  one real contract, the columnar ``BatchVertexProgram``.
* :mod:`oracles.shp_dict` — the per-vertex twin of distributed SHP that
  ``SHPColumnarProgram`` must agree with bit for bit.

Nothing here is imported by ``src/``.
"""
