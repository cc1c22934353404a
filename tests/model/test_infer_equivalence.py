"""Equivalence oracle for the shape-dispatched date grammar and the
one-pass column inference.

The functions prefixed ``old_`` are the implementations this repo
shipped before the change, kept verbatim (regexes included) as a
test-only reference: every format tried through ``strptime`` for every
string, every cell typed on its own.  The properties assert that
``_parse_date``, ``infer_type``, ``coerce(..., DATE)``,
``infer_column_type``, ``Schema.from_rows``, ``Table.from_rows`` cell
dtypes and ``Table.infer_schema`` agree with them on the generator's
corruption classes, on adversarial near-dates, and on mixed columns
around the vote thresholds.
"""

import datetime as _dt
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.corrupt import format_date, format_price, jitter_geo, misspell
from repro.errors import TypeInferenceError
from repro.model.records import Table
from repro.model.schema import (
    Attribute,
    DataType,
    Schema,
    _parse_date,
    coerce,
    infer_column_type,
    infer_type,
    infer_types,
)

# -- the parent commit's implementation, verbatim ---------------------------

_BOOL_LITERALS = {
    "true": True,
    "false": False,
    "yes": True,
    "no": False,
    "y": True,
    "n": False,
}

_INT_RE = re.compile(r"^[+-]?\d{1,15}$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")
_CURRENCY_RE = re.compile(
    r"^\s*(?P<sym>[$€£¥]|USD|EUR|GBP)?\s*"
    r"(?P<amount>[+-]?\d{1,3}(,\d{3})+(\.\d+)?|[+-]?\d+(\.\d+)?)\s*"
    r"(?P<kilo>[kK])?\s*"
    r"(?P<sym2>[$€£¥]|USD|EUR|GBP)?\s*$"
)
_URL_RE = re.compile(r"^https?://[^\s]+$", re.IGNORECASE)
_DATE_FORMATS = (
    "%Y-%m-%d",
    "%d/%m/%Y",
    "%m/%d/%Y",
    "%Y/%m/%d",
    "%d %b %Y",
    "%d %B %Y",
    "%b %d, %Y",
)
_GEO_RE = re.compile(
    r"^\s*[+-]?\d{1,2}(\.\d+)?\s*,\s*[+-]?\d{1,3}(\.\d+)?\s*$"
)


def old_parse_date(text):
    for fmt in _DATE_FORMATS:
        try:
            return _dt.datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    return None


def old_infer_type(value):
    if isinstance(value, bool):
        return DataType.BOOLEAN
    if isinstance(value, int):
        return DataType.INTEGER
    if isinstance(value, float):
        return DataType.FLOAT
    if isinstance(value, (_dt.date, _dt.datetime)):
        return DataType.DATE
    if isinstance(value, tuple) and len(value) == 2 and all(
        isinstance(part, (int, float)) for part in value
    ):
        return DataType.GEO
    if not isinstance(value, str):
        return DataType.STRING
    text = value.strip()
    if not text:
        return DataType.STRING
    if _URL_RE.match(text):
        return DataType.URL
    if _GEO_RE.match(text):
        return DataType.GEO
    if old_parse_date(text) is not None:
        return DataType.DATE
    if text.lower() in _BOOL_LITERALS:
        return DataType.BOOLEAN
    if _INT_RE.match(text):
        return DataType.INTEGER
    if _FLOAT_RE.match(text):
        return DataType.FLOAT
    match = _CURRENCY_RE.match(text)
    if match and (match.group("sym") or match.group("sym2")):
        return DataType.CURRENCY
    return DataType.STRING


def old_infer_column_type(values, threshold=0.8):
    counts = {}
    total = 0
    for value in values:
        if value is None or (isinstance(value, str) and not value.strip()):
            continue
        total += 1
        dtype = old_infer_type(value)
        counts[dtype] = counts.get(dtype, 0) + 1
    if total == 0:
        return DataType.STRING
    best = max(counts, key=lambda d: counts[d])
    if counts[best] / total >= threshold:
        return best
    numeric = sum(counts.get(d, 0) for d in (DataType.INTEGER, DataType.FLOAT))
    if numeric / total >= threshold:
        return DataType.FLOAT
    if (numeric + counts.get(DataType.CURRENCY, 0)) / total >= threshold:
        return DataType.CURRENCY
    return DataType.STRING


def old_schema_from_rows(rows):
    if not rows:
        return Schema(())
    names = []
    for row in rows:
        for name in row:
            if name not in names:
                names.append(name)
    attrs = tuple(
        Attribute(name, old_infer_column_type(row.get(name) for row in rows))
        for name in names
    )
    return Schema(attrs)


def old_infer_schema(table):
    attrs = []
    for name in table.schema.names:
        raws = [r.raw(name) for r in table.records]
        non_null = [raw for raw in raws if raw is not None]
        declared = table.schema[name]
        if non_null:
            counts = {}
            for raw in non_null:
                dtype = old_infer_type(raw)
                counts[dtype] = counts.get(dtype, 0) + 1
            best = max(counts, key=lambda d: counts[d])
            attrs.append(Attribute(name, best, declared.required, declared.description))
        else:
            attrs.append(declared)
    return Schema(tuple(attrs))


# -- strategies ---------------------------------------------------------------

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dates = st.dates(min_value=_dt.date(1900, 1, 1), max_value=_dt.date(2100, 12, 31))
prices = st.floats(min_value=0.01, max_value=99999.0).map(lambda p: round(p, 2))
titles = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCXYZ 0123456789-,/.", min_size=0, max_size=24
)

#: (a) every output class of ``datagen.corrupt``, plus blanks and ``None``.
corrupted = st.one_of(
    st.builds(lambda d, s: format_date(d, random.Random(s)), dates, seeds),
    st.builds(lambda p, s: format_price(p, random.Random(s)), prices, seeds),
    st.builds(lambda t, s: misspell(t, random.Random(s)), titles, seeds),
    st.builds(
        lambda d, s: misspell(format_date(d, random.Random(s)), random.Random(s)),
        dates,
        seeds,
    ),
    st.builds(
        lambda lat, lon, s: jitter_geo(lat, lon, random.Random(s)),
        st.floats(min_value=-89.0, max_value=89.0),
        st.floats(min_value=-179.0, max_value=179.0),
        seeds,
    ),
    st.builds(
        lambda lat, lon, s: "%s, %s" % jitter_geo(lat, lon, random.Random(s)),
        st.floats(min_value=-89.0, max_value=89.0),
        st.floats(min_value=-179.0, max_value=179.0),
        seeds,
    ),
    prices,
    st.integers(min_value=-10**6, max_value=10**6),
    st.booleans(),
    dates,
    st.sampled_from([None, "", " ", "\t\n", "yes", "N", "http://shop.example/p/1"]),
)

#: (b) hand-picked near-dates: each sits on one edge of the shape grammar.
NEAR_DATES = [
    "2016-03- 5",
    "2016-03-5",
    "2016- 3-05",
    "15 MARCH 2016",
    "15 march 2016",
    "15  Mar\t2016",
    "Mar  15,  2016",
    "Mar  5, 2016",
    "mar 15, 2016",
    "March 15, 2016",
    "Mar 15 2016",
    "Mar 15,2016",
    "31/02/2016",
    "12/13/2016",
    "13/12/2016",
    "13/13/2016",
    "3/ 5/2016",
    " 5/03/2016",
    "2016-13-01",
    "2016/02/30",
    "2016/2/3",
    "12016-03-15",
    "2016-03-15x",
    "2016-03-15 00:00",
    "15/03/2016 ",
    "15/03/20161",
    "15-03-2016",
    "２０１６-03-15",
    "１５/０３/２０１６",
    "15 Mar ２０１６",
    "1,200",
    "1,200.50",
    "$1,200",
    "12, 2016",
    "5 2016",
    "15 Mar 5, 2016",
    "Acme Laptop 15, 2016",
    "3 pack of 2016",
    "0/0/0000",
    "00/00/2016",
    "2016-00-10",
    "15\nMar\n2016",
]

_days = st.sampled_from(["5", " 5", "05", "15", "31", "32", "0", "00", "１５", ""])
_months = st.sampled_from(["3", "03", "12", "13", "0", " 3", "０３", ""])
_years = st.sampled_from(["2016", "1999", "12016", "216", "２０１６", "0000", ""])
_names = st.sampled_from(
    ["Mar", "MAR", "mar", "March", "MARCH", "Marc", "Sept", "Sep", "May", "Febr", "x", ""]
)
_gaps = st.sampled_from([" ", "  ", "\t", "\n", "", " \u00a0"])
_junk = st.sampled_from(["", "", "", " ", "x", ".", " 00:00", "1", ","])


def _assemble(template):
    parts = {
        "d": _days, "m": _months, "Y": _years, "b": _names, "_": _gaps,
    }
    pieces = [parts.get(ch, st.just(ch)) for ch in template]
    return st.tuples(*pieces, _junk).map("".join)


#: (b) near-dates assembled around each of the seven formats.
near_dates = st.one_of(
    st.sampled_from(NEAR_DATES),
    *(_assemble(t) for t in ("Y-m-d", "d/m/Y", "m/d/Y", "Y/m/d", "d_b_Y", "b_d,_Y")),
    st.text(alphabet="0123456789 /-,MarchJuneSp２０１６\t", max_size=14),
)

cells = st.one_of(corrupted, near_dates)
equivalence = settings(max_examples=300, deadline=None)


def _string(value):
    return value if isinstance(value, str) else str(value)


# -- single cells ------------------------------------------------------------


class TestCellEquivalence:
    @pytest.mark.parametrize("text", NEAR_DATES)
    def test_named_near_dates(self, text):
        assert _parse_date(text.strip()) == old_parse_date(text.strip())
        assert _parse_date(text) == old_parse_date(text)
        assert infer_type(text) is old_infer_type(text)

    def test_thousands_separated_integer_stays_geo(self):
        assert infer_type("1,200") is DataType.GEO

    def test_full_width_digits_parse_as_before(self):
        assert _parse_date("２０１６-03-15") == _dt.date(2016, 3, 15)

    @equivalence
    @given(cells)
    def test_parse_date_matches_the_seven_format_chain(self, value):
        text = _string(value)
        # Stripped is what infer_type and coerce hand it; unstripped must
        # agree too (``%d`` accepts a leading blank).
        assert _parse_date(text.strip()) == old_parse_date(text.strip())
        assert _parse_date(text) == old_parse_date(text)

    @equivalence
    @given(cells)
    def test_infer_type_matches(self, value):
        assert infer_type(value) is old_infer_type(value)

    @equivalence
    @given(cells)
    def test_coerce_to_date_matches(self, value):
        if value is None or isinstance(value, _dt.date):
            assert coerce(value, DataType.DATE) == value
            return
        expected = old_parse_date(_string(value).strip())
        if expected is None:
            with pytest.raises(TypeInferenceError):
                coerce(value, DataType.DATE)
        else:
            assert coerce(value, DataType.DATE) == expected


# -- whole columns -----------------------------------------------------------

_INTS = st.sampled_from([1, 42, "7", "-3", "+15"])
_FLOATS = st.sampled_from([1.5, "2.50", "1e3", ".5"])
_CURRENCIES = st.sampled_from(["$5", "£1,200.00", "3.00 USD", "€ 4.10", "$2k"])
_STRINGS = st.sampled_from(["Acme Laptop", "n/a", "15 of 2016", "1.2.3"])
_DATES = st.sampled_from(["2016-03-15", "15/03/2016", "Mar 15, 2016", _dt.date(2016, 3, 15)])
_MISSING = st.sampled_from([None, "", "  "])
_KINDS = (_INTS, _FLOATS, _CURRENCIES, _STRINGS, _DATES, _MISSING)


@st.composite
def mixed_columns(draw):
    """Two or three value classes in proportions that straddle 0.8.

    Sizes are multiples of 5 and 10 so that exactly 80% (and 79%, 81% via
    the remainder class) are reachable, with the classes shuffled so the
    first-seen order that breaks plurality ties varies too.
    """
    size = draw(st.sampled_from([5, 10, 20, 25]))
    major = draw(st.integers(min_value=size // 2, max_value=size))
    first, second, third = (draw(st.sampled_from(_KINDS)) for _ in range(3))
    split = draw(st.integers(min_value=0, max_value=size - major))
    column = (
        [draw(first) for _ in range(major)]
        + [draw(second) for _ in range(split)]
        + [draw(third) for _ in range(size - major - split)]
    )
    return draw(st.permutations(column))


columns = st.one_of(mixed_columns(), st.lists(cells, max_size=12))


def _rows(columns_by_name):
    height = max((len(c) for c in columns_by_name.values()), default=0)
    return [
        {
            name: column[index]
            for name, column in columns_by_name.items()
            # Short columns leave the key out of the later rows: a row
            # without a column must read as None, not shift the others.
            if index < len(column)
        }
        for index in range(height)
    ]


tables = st.dictionaries(
    st.sampled_from(["title", "price", "updated", "geo", "_truth"]),
    columns,
    max_size=4,
).map(_rows)


class TestColumnEquivalence:
    @equivalence
    @given(columns)
    def test_infer_types_is_infer_type_per_cell(self, column):
        dtypes, counts = infer_types(column)
        expected = [
            None
            if value is None or (isinstance(value, str) and not value.strip())
            else old_infer_type(value)
            for value in column
        ]
        assert dtypes == expected
        tally = {}
        for dtype in expected:
            if dtype is not None:
                tally[dtype] = tally.get(dtype, 0) + 1
        # Same numbers in the same first-seen order (ties break on it).
        assert list(counts.items()) == list(tally.items())

    @equivalence
    @given(columns, st.sampled_from([0.8, 0.5, 0.79, 1.0]))
    def test_infer_column_type_matches(self, column, threshold):
        assert infer_column_type(column, threshold) is old_infer_column_type(
            column, threshold
        )

    @equivalence
    @given(columns)
    def test_infer_column_type_accepts_a_generator(self, column):
        assert infer_column_type(v for v in column) is old_infer_column_type(column)

    @equivalence
    @given(tables)
    def test_schema_from_rows_matches(self, rows):
        assert Schema.from_rows(rows) == old_schema_from_rows(rows)

    @equivalence
    @given(tables)
    def test_table_from_rows_types_cells_and_schema_as_before(self, rows):
        table = Table.from_rows("t", rows)
        assert table.schema == old_schema_from_rows(rows)
        assert table.to_rows() == [dict(row) for row in rows]
        for record, row in zip(table, rows):
            assert list(record.cells) == list(row)
            for name, raw in row.items():
                expected = DataType.STRING if raw is None else old_infer_type(raw)
                assert record.cells[name].dtype is expected

    @equivalence
    @given(tables)
    def test_table_infer_schema_matches(self, rows):
        table = Table.from_rows("t", rows)
        assert table.infer_schema().schema == old_infer_schema(table)

    @equivalence
    @given(tables)
    def test_infer_schema_keeps_declared_attributes(self, rows):
        declared = Schema(
            tuple(
                Attribute(a.name, DataType.URL, required=True, description="kept")
                for a in old_schema_from_rows(rows)
            )
        )
        table = Table.from_rows("t", rows, schema=declared)
        assert table.schema == declared
        assert table.infer_schema().schema == old_infer_schema(table)

    @pytest.mark.parametrize(
        "column",
        [
            ["$5", "$6", "$7", "$8", "x"],  # exactly 0.8 of one type
            ["$5", "$6", "$7", "x", "y"],  # 0.6: degrades to STRING
            [1, 2, 3, 4.5, "x"],  # INTEGER + FLOAT pool to FLOAT
            [1, 2, 3, "$4", "x"],  # numeric + CURRENCY pool to CURRENCY
            [1, 2, "$3", "$4", "x", "y"],  # pooled, still under 0.8
            ["2016-03-15"] * 4 + ["soon", None, ""],  # missing cells do not vote
            ["2016-03-15"] * 3 + ["soon", "later"],
            [True, "yes", "no", "n", "maybe"],
            [],
            [None, "", "  "],
        ],
    )
    def test_threshold_and_pooling_branches(self, column):
        assert infer_column_type(column) is old_infer_column_type(column)
        rows = [{"c": value} for value in column]
        assert Schema.from_rows(rows) == old_schema_from_rows(rows)
        table = Table.from_rows("t", rows)
        assert table.infer_schema().schema == old_infer_schema(table)
