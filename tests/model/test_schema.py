"""Tests for schemas, attributes, and type inference."""

import datetime

import pytest

from repro.errors import SchemaError, TypeInferenceError
from repro.model.schema import (
    Attribute,
    DataType,
    Schema,
    coerce,
    infer_column_type,
    infer_type,
)


class TestInferType:
    def test_python_natives(self):
        assert infer_type(True) is DataType.BOOLEAN
        assert infer_type(3) is DataType.INTEGER
        assert infer_type(3.5) is DataType.FLOAT
        assert infer_type(datetime.date(2016, 3, 15)) is DataType.DATE

    def test_bool_is_not_integer(self):
        # bool is a subclass of int in Python; inference must not confuse them
        assert infer_type(False) is DataType.BOOLEAN

    def test_string_integer(self):
        assert infer_type("42") is DataType.INTEGER
        assert infer_type("-7") is DataType.INTEGER

    def test_string_float(self):
        assert infer_type("3.14") is DataType.FLOAT
        assert infer_type("-0.5") is DataType.FLOAT
        assert infer_type("1e5") is DataType.FLOAT

    def test_currency(self):
        assert infer_type("$19.99") is DataType.CURRENCY
        assert infer_type("£1,299.00") is DataType.CURRENCY
        assert infer_type("19.99 EUR") is DataType.CURRENCY

    def test_plain_number_is_not_currency(self):
        assert infer_type("19.99") is DataType.FLOAT

    def test_url(self):
        assert infer_type("https://shop.example.com/p/1") is DataType.URL
        assert infer_type("http://a.b/c?d=e") is DataType.URL

    def test_date_formats(self):
        assert infer_type("2016-03-15") is DataType.DATE
        assert infer_type("15/03/2016") is DataType.DATE
        assert infer_type("Mar 15, 2016") is DataType.DATE

    def test_geo(self):
        assert infer_type("51.5074, -0.1278") is DataType.GEO
        assert infer_type((51.5, -0.12)) is DataType.GEO

    def test_boolean_literals(self):
        assert infer_type("true") is DataType.BOOLEAN
        assert infer_type("No") is DataType.BOOLEAN

    def test_fallback_string(self):
        assert infer_type("hello world") is DataType.STRING
        assert infer_type("") is DataType.STRING

    def test_numeric_typing(self):
        assert DataType.CURRENCY.is_numeric()
        assert not DataType.URL.is_numeric()


class TestInferColumnType:
    def test_majority_vote(self):
        assert infer_column_type(["1", "2", "3", "x"], threshold=0.7) is DataType.INTEGER

    def test_mixed_numeric_pools_to_float(self):
        assert infer_column_type(["1", "2.5", "3", "4.5"]) is DataType.FLOAT

    def test_nulls_ignored(self):
        assert infer_column_type([None, "", "5", "6"]) is DataType.INTEGER

    def test_all_null_is_string(self):
        assert infer_column_type([None, None]) is DataType.STRING

    def test_disagreement_degrades_to_string(self):
        values = ["1", "hello", "2016-01-01", "x", "y"]
        assert infer_column_type(values) is DataType.STRING


class TestCoerce:
    def test_none_passes_through(self):
        assert coerce(None, DataType.INTEGER) is None

    def test_currency_parses_symbols_and_commas(self):
        assert coerce("$1,299.50", DataType.CURRENCY) == pytest.approx(1299.50)

    def test_date(self):
        assert coerce("15/03/2016", DataType.DATE) == datetime.date(2016, 3, 15)

    def test_geo_from_string(self):
        assert coerce("51.5, -0.12", DataType.GEO) == (51.5, -0.12)

    def test_boolean(self):
        assert coerce("yes", DataType.BOOLEAN) is True
        assert coerce("FALSE", DataType.BOOLEAN) is False

    def test_failure_raises(self):
        with pytest.raises(TypeInferenceError):
            coerce("not a number", DataType.INTEGER)
        with pytest.raises(TypeInferenceError):
            coerce("hello", DataType.CURRENCY)

    def test_bool_not_coercible_to_int(self):
        with pytest.raises(TypeInferenceError):
            coerce(True, DataType.INTEGER)


#: For every DataType: a canonical native value, a string literal that
#: coerces to it, and a value that must fail coercion.
ROUND_TRIPS = {
    DataType.STRING: ("hello", "hello", None),
    DataType.INTEGER: (42, "42", "forty-two"),
    DataType.FLOAT: (3.25, "3.25", "three"),
    DataType.BOOLEAN: (True, "yes", "perhaps"),
    DataType.DATE: (datetime.date(2016, 3, 15), "2016-03-15", "someday"),
    DataType.CURRENCY: (19.99, "$19.99", "priceless"),
    DataType.URL: ("https://a.b/c", "https://a.b/c", "not a url"),
    DataType.GEO: ((51.5, -0.12), "51.5, -0.12", "nowhere, really, at all"),
}


class TestCoerceRoundTrips:
    """Every DataType member: native pass-through, string parse, failure."""

    def test_every_member_is_covered(self):
        assert set(ROUND_TRIPS) == set(DataType)

    @pytest.mark.parametrize("dtype", list(DataType), ids=lambda d: d.value)
    def test_native_value_round_trips(self, dtype):
        native, _, _ = ROUND_TRIPS[dtype]
        assert coerce(native, dtype) == native
        # Coercion is idempotent: coercing the result again is a no-op.
        assert coerce(coerce(native, dtype), dtype) == native

    @pytest.mark.parametrize("dtype", list(DataType), ids=lambda d: d.value)
    def test_string_literal_parses(self, dtype):
        native, literal, _ = ROUND_TRIPS[dtype]
        assert coerce(literal, dtype) == native

    @pytest.mark.parametrize("dtype", list(DataType), ids=lambda d: d.value)
    def test_inferred_type_coerces_to_itself(self, dtype):
        _, literal, _ = ROUND_TRIPS[dtype]
        inferred = infer_type(literal)
        assert coerce(literal, inferred) is not None

    @pytest.mark.parametrize(
        "dtype",
        [d for d in DataType if ROUND_TRIPS[d][2] is not None],
        ids=lambda d: d.value,
    )
    def test_failure_path_raises_type_inference_error(self, dtype):
        _, _, bad = ROUND_TRIPS[dtype]
        with pytest.raises(TypeInferenceError):
            coerce(bad, dtype)

    @pytest.mark.parametrize("dtype", list(DataType), ids=lambda d: d.value)
    def test_none_passes_through_every_type(self, dtype):
        assert coerce(None, dtype) is None

    def test_datetime_narrows_to_date(self):
        stamp = datetime.datetime(2016, 3, 15, 12, 30)
        assert coerce(stamp, DataType.DATE) == datetime.date(2016, 3, 15)

    def test_currency_kilo_suffix(self):
        assert coerce("$1.2k", DataType.CURRENCY) == pytest.approx(1200.0)

    def test_geo_wrong_arity_fails(self):
        with pytest.raises(TypeInferenceError):
            coerce("1, 2, 3", DataType.GEO)


class TestSchema:
    def test_of_mixed_specs(self):
        schema = Schema.of("name", ("price", DataType.CURRENCY), Attribute("url", DataType.URL))
        assert schema.names == ("name", "price", "url")
        assert schema["price"].dtype is DataType.CURRENCY

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of("a", "a")

    def test_empty_attribute_name_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("")

    def test_from_rows_infers_types(self):
        rows = [
            {"name": "tv", "price": "$100"},
            {"name": "radio", "price": "$20"},
        ]
        schema = Schema.from_rows(rows)
        assert schema["price"].dtype is DataType.CURRENCY
        assert schema["name"].dtype is DataType.STRING

    def test_from_rows_unions_keys(self):
        rows = [{"a": 1}, {"b": 2}]
        assert Schema.from_rows(rows).names == ("a", "b")

    def test_project_and_contains(self):
        schema = Schema.of("a", "b", "c")
        assert "b" in schema
        assert schema.project(["c", "a"]).names == ("c", "a")

    def test_getitem_missing_raises(self):
        with pytest.raises(SchemaError):
            Schema.of("a")["zzz"]

    def test_rename(self):
        schema = Schema.of("a", "b").rename({"a": "x"})
        assert schema.names == ("x", "b")

    def test_merge_disjoint(self):
        merged = Schema.of("a").merge(Schema.of("b"))
        assert merged.names == ("a", "b")

    def test_merge_conflicting_types_raises(self):
        left = Schema.of(("p", DataType.CURRENCY))
        right = Schema.of(("p", DataType.STRING))
        with pytest.raises(SchemaError):
            left.merge(right)

    def test_merge_shared_compatible(self):
        left = Schema.of(("p", DataType.CURRENCY), "a")
        right = Schema.of(("p", DataType.CURRENCY), "b")
        assert left.merge(right).names == ("p", "a", "b")
