"""``SlotTable`` alone: any interleaving of its operations equals a
dict-of-dicts model.

The engine's S2 and S3 reach the table through four moves — look cells up
(inserting the slots not yet there), scatter-add into them, zero whole
rows, read rows back as sparse histograms — plus the renumbering that makes
room for new rows.  Whatever order they come in, ``keys`` stay strictly
ascending, a row reads back its non-zero sides in ascending bucket order,
and a value written beside a count stays beside it across insertions.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed_shp.columnar import SlotTable

ROWS = 6
cells = st.lists(
    st.tuples(st.integers(0, ROWS - 1), st.integers(0, 11), st.integers(-3, 5)),
    min_size=1, max_size=12,
)
rows = st.lists(st.integers(0, ROWS - 1), min_size=1, max_size=ROWS, unique=True)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), cells),
        st.tuples(st.just("add"), cells),
        st.tuples(st.just("zero"), rows),
        st.tuples(st.just("read"), rows),
        st.tuples(st.just("new-row"), st.integers(0, ROWS - 1)),
    ),
    min_size=1, max_size=25,
)


def _columns(triples):
    row, bucket, delta = (np.array(column, dtype=np.int64) for column in zip(*triples))
    return row, bucket, delta.astype(np.int32)


def _tag(row: int, bucket: int) -> float:
    return float(100 * row + bucket) + 0.5


@settings(max_examples=200, deadline=None)
@given(operations)
def test_any_interleaving_equals_a_dict_of_dicts(ops):
    table = SlotTable(value_columns=1)
    model: list[dict[int, int]] = [{} for _ in range(ROWS)]  # row -> {bucket: count}
    slots: set[tuple[int, int]] = set()  # (row, bucket >> 1) ever looked up
    num_rows = ROWS

    for op, arg in ops:
        if op in ("insert", "add"):
            row, bucket, delta = _columns(arg)
            before = table.keys.size
            index = table.cells(row, bucket)
            new = {(r, b >> 1) for r, b, _ in arg} - slots
            assert table.keys.size == before + len(new)
            slots |= new
            # A cell is where its (row, bucket) says, whatever was inserted.
            assert (table.keys[index >> 1] == (row << 31 | bucket >> 1)).all()
            assert (index & 1 == bucket & 1).all()
            assert (table.bucket_of(index) == bucket).all()
            if op == "add":
                np.add.at(table.sides, index, delta)
                for r, b, d in arg:
                    model[r][b] = model[r].get(b, 0) + d
            # Tag each cell's value with who it is: insertions must move
            # values with their counts, and give new cells 0.0.
            fresh = table.values[0][index] == 0.0
            assert (fresh | (table.values[0][index] == [_tag(r, b) for r, b, _ in arg])).all()
            table.values[0][index] = [_tag(r, b) for r, b, _ in arg]
        elif op == "zero":
            listed = np.array(arg, dtype=np.int64)
            table.sides[table.row_cells(listed, num_rows)] = 0
            for r in arg:
                model[r] = {}
        elif op == "read":
            listed = np.array(sorted(arg), dtype=np.int64)
            row_len, live = table.entries(listed, num_rows)
            expected = [sorted((b, c) for b, c in model[r].items() if c > 0) for r in listed]
            assert row_len.tolist() == [len(row) for row in expected]
            got = list(zip(table.bucket_of(live).tolist(), table.sides[live].tolist()))
            assert got == [entry for row in expected for entry in row]
        else:  # a new, empty row takes number ``arg``; later rows move up
            table.insert_rows(np.array([arg], dtype=np.int64))
            model.insert(arg, {})
            slots = {(r + (r >= arg), pair) for r, pair in slots}
            num_rows += 1
            # The tags name rows by number: re-tag what moved.
            moved = np.flatnonzero((table.keys >> 31) > arg)
            for column in (2 * moved, 2 * moved + 1):
                kept = table.values[0][column] != 0.0
                table.values[0][column[kept]] += 100.0

        assert np.all(np.diff(table.keys) > 0)
        assert table.keys.size == len(slots) and table.sides.size == 2 * len(slots)
        assert table.sides.dtype == np.int32 and table.values[0].shape == table.sides.shape
        assert {(int(k) >> 31, int(k) & 0x7FFFFFFF) for k in table.keys} == slots
    # Everything ever added is where the model says, zero sides included.
    for slot, key in enumerate(table.keys.tolist()):
        for side in (0, 1):
            bucket = 2 * (key & 0x7FFFFFFF) + side
            assert table.sides[2 * slot + side] == model[key >> 31].get(bucket, 0)


def test_an_empty_table_reads_empty_rows():
    table = SlotTable()
    row_len, live = table.entries(np.arange(3), 3)
    assert row_len.tolist() == [0, 0, 0] and live.size == 0
    assert table.row_cells(np.array([1]), 3).size == 0 and table.nbytes == 0
