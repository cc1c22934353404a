"""``Table.counted_schema`` — the vote counted from the dtypes cells carry —
against ``Table.infer_schema``, which types the raws again.

The wrangler takes a structured table's schema from the counted vote, so
on every table ``Table.from_rows`` types from raw rows, carried records
included, the two must give the same schema: blank strings (whose cell
holds ``STRING``), ``None`` and absent cells (which do not vote), mixed
types around the plurality, and all-``None`` columns (which keep their
declared dtype).
"""

import datetime as _dt

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.records import Table
from repro.model.schema import Attribute, DataType, Schema

CELLS = (
    None, "", "  ", "12", "-3", "2.5", "1e3", "$4.20", "€1,200", "yes", "n",
    "true", "2016-01-02", "03/04/2016", "http://x.example/a", "48.1, 11.5",
    "abc", "Globex Pro 7", 7, 2.5, True, _dt.date(2016, 1, 2), (1.0, 2.0),
)

rows_strategy = st.lists(
    st.dictionaries(
        st.sampled_from(("a", "b", "c", "d")), st.sampled_from(CELLS),
        max_size=4,
    ),
    max_size=30,
)


def assert_same_vote(table):
    assert table.counted_schema().schema == table.infer_schema().schema


@settings(max_examples=300, deadline=None)
@given(rows_strategy)
def test_the_counted_vote_is_the_inferred_vote(rows):
    assert_same_vote(Table.from_rows("t", rows))


@settings(max_examples=150, deadline=None)
@given(rows_strategy, rows_strategy, st.randoms(use_true_random=False))
def test_carried_records_vote_with_their_held_dtypes(old, new, rng):
    """A delta view: some records carried from an earlier ``from_rows``
    over their own rows, the others typed afresh."""
    earlier = Table.from_rows("t", old)
    rows, carried = [], []
    for row, record in zip(old, earlier.records):
        if rng.random() < 0.7:
            rows.append(row)
            carried.append(record)
    for row in new:
        rows.append(row)
        carried.append(None)
    order = list(range(len(rows)))
    rng.shuffle(order)
    view = Table.from_rows(
        "t", [rows[i] for i in order], carried=[carried[i] for i in order]
    )
    assert_same_vote(view)


def test_blank_none_and_declared_dtypes():
    declared = Schema.of(
        ("blank", DataType.INTEGER), ("empty", DataType.DATE),
        ("mixed", DataType.STRING),
    )
    rows = [
        {"blank": "", "empty": None, "mixed": "1"},
        {"blank": "   ", "mixed": "2.5"},
        {"blank": "4", "empty": None, "mixed": "x"},
        {"blank": "", "mixed": "2"},
    ]
    table = Table.from_rows("t", rows, schema=declared)
    assert_same_vote(table)
    voted = table.counted_schema().schema
    assert voted["blank"] == Attribute("blank", DataType.STRING)
    assert voted["empty"] == Attribute("empty", DataType.DATE)
    # A plurality, first seen wins the tie: INTEGER (2) over FLOAT, STRING.
    assert voted["mixed"].dtype is DataType.INTEGER
