"""Reference implementations the suite compares production code against.

* :mod:`oracles.per_vertex` — the per-vertex ``compute(ctx, vid, state,
  messages)`` programming model (Giraph's), as an adapter onto the engine's
  one real contract, the columnar ``BatchVertexProgram``; also the scalar
  ``counter_random`` that ``counter_random_array`` must reproduce.
* :mod:`oracles.shp_dict` — the per-vertex twin of distributed SHP that
  ``SHPColumnarProgram`` must agree with bit for bit.
* :mod:`oracles.full_recompute` — ``SHPColumnarProgram`` with every data
  vertex marked stale before each S3: the whole-partition gain recompute
  the activity rule's proposals are checked against after every S3.
* :mod:`oracles.rebuilt_tables` — ``SHPColumnarProgram`` auditing itself:
  around every S2 and S3 both neighbor-data slot tables, every cell's Eq. 1
  values and the pin -> cell join are rebuilt from scratch and compared
  exactly with the incrementally maintained ones.
* :mod:`oracles.shp2_loop` — SHP-2 by literal per-group recursion (one
  ``induced_subgraph`` + one ``refine`` loop per bisection), under
  production's driver; what the level-fused engine is checked against.
* :mod:`oracles.level_kernels` — ``sibling_move_gains`` /
  ``update_bucket_counts`` over the dense ``|Q| × L`` counts layout; what
  the pair-compact production kernels are checked against.
* :mod:`oracles.replay_loop` — traffic replay one query at a time, with the
  scalar multi-get planner and latency draw; what the batched
  ``replay_traffic`` is checked against.
* :mod:`oracles.text_parsers` — the ``.hgr`` / ``.tsv`` readers one
  ``readline()`` / ``split()`` / ``int()`` at a time; what the block
  tokenizer under ``read_hmetis`` / ``read_edge_list`` / ``convert_to_store``
  is checked against.

Nothing here is imported by ``src/``, ``benchmarks/`` or ``examples/``.
"""
