"""Tests for records and tables."""

import pytest

from repro.errors import SchemaError
from repro.model.provenance import Provenance, Step
from repro.model.records import Record, Table
from repro.model.schema import DataType, Schema
from repro.model.values import MISSING, Value

ROWS = [
    {"name": "4K TV", "price": "$399", "stock": "5"},
    {"name": "Radio", "price": "$25", "stock": None},
    {"name": "Laptop", "price": "$999", "stock": "2"},
]


@pytest.fixture
def table():
    return Table.from_rows("catalog", ROWS, source="shop")


class TestValue:
    def test_infers_dtype(self):
        assert Value.of("$399").dtype is DataType.CURRENCY

    def test_missing(self):
        assert MISSING.is_missing
        assert Value.of("  ").is_missing
        assert not Value.of("x").is_missing

    def test_confidence_validation(self):
        with pytest.raises(ValueError):
            Value.of("x", confidence=1.5)

    def test_with_raw_extends_provenance(self):
        v = Value.of("399", Provenance.source("shop"))
        repaired = v.with_raw(399.0, Step.REPAIR, "fix-1")
        assert repaired.raw == 399.0
        assert repaired.provenance.step is Step.REPAIR
        assert repaired.provenance.sources() == {"shop"}

    def test_str(self):
        assert str(Value.of(None)) == ""
        assert str(Value.of(5)) == "5"


class TestRecord:
    def test_of_wraps_values_with_source_provenance(self):
        record = Record.of({"a": 1}, source="src")
        assert record["a"].provenance.sources() == {"src"}

    def test_missing_cell_returns_missing(self):
        record = Record.of({"a": 1})
        assert record["zzz"] is MISSING
        assert record.raw("zzz") is None

    def test_with_cell_is_persistent(self):
        record = Record.of({"a": 1})
        updated = record.with_cell("b", Value.of(2))
        assert record.raw("b") is None
        assert updated.raw("b") == 2
        assert updated.rid == record.rid

    def test_completeness(self):
        record = Record.of({"a": 1, "b": None})
        assert record.completeness(["a", "b"]) == pytest.approx(0.5)
        assert record.completeness([]) == 1.0

    def test_mean_confidence(self):
        record = Record.of({"a": 1, "b": 2}, confidence=0.8)
        assert record.mean_confidence() == pytest.approx(0.8)

    def test_unique_rids(self):
        a = Record.of({"x": 1})
        b = Record.of({"x": 1})
        assert a.rid != b.rid


class TestTable:
    def test_from_rows_infers_schema(self, table):
        assert table.schema["price"].dtype is DataType.CURRENCY
        assert len(table) == 3

    def test_column_and_raw_column(self, table):
        assert table.raw_column("name") == ["4K TV", "Radio", "Laptop"]

    def test_column_unknown_attribute(self, table):
        with pytest.raises(SchemaError):
            table.column("nope")

    def test_project(self, table):
        projected = table.project(["name"])
        assert projected.schema.names == ("name",)
        assert projected[0].raw("price") is None

    def test_union_merges_schemas(self, table):
        other = Table.from_rows("extra", [{"name": "Mouse", "colour": "black"}])
        merged = table.union(other)
        assert "colour" in merged.schema
        assert len(merged) == 4

    def test_distinct_raw_skips_missing(self, table):
        assert table.distinct_raw("stock") == {"5", "2"}

    def test_completeness(self, table):
        # 9 cells, 1 missing
        assert table.completeness() == pytest.approx(8 / 9)

    def test_sort_by_missing_last(self, table):
        ordered = table.sort_by("stock")
        assert ordered[-1].raw("stock") is None

    def test_head(self, table):
        assert len(table.head(2)) == 2

    def test_render_contains_header_and_rows(self, table):
        text = table.render()
        assert "name" in text and "4K TV" in text

    def test_describe(self, table):
        assert "3 records" in table.describe()

    def test_empty_table_metrics(self):
        empty = Table("empty", Schema.of("a"))
        assert empty.completeness() == 1.0
        assert empty.mean_confidence() == 1.0

    def test_infer_schema_refines_types(self):
        t = Table.from_rows("t", [{"n": "1"}, {"n": "2"}])
        assert t.infer_schema().schema["n"].dtype is DataType.INTEGER
