"""Tests for user and data contexts."""

import pytest

from repro.context.data_context import DataContext
from repro.context.ontology import Ontology
from repro.context.user_context import UserContext
from repro.errors import ContextError
from repro.model.annotations import Dimension
from repro.model.records import Record, Table
from repro.model.schema import DataType, Schema

SCHEMA = Schema.of("product", ("price", DataType.CURRENCY))


class TestUserContext:
    def test_weights_are_normalised(self):
        ctx = UserContext(
            "u", SCHEMA, weights={Dimension.ACCURACY: 2.0, Dimension.COST: 2.0}
        )
        assert ctx.weight(Dimension.ACCURACY) == pytest.approx(0.5)
        assert ctx.weight(Dimension.RELEVANCE) == 0.0

    def test_zero_weights_rejected(self):
        with pytest.raises(ContextError):
            UserContext("u", SCHEMA, weights={Dimension.ACCURACY: 0.0})

    def test_floor_validation(self):
        with pytest.raises(ContextError):
            UserContext("u", SCHEMA, floors={Dimension.ACCURACY: 1.5})

    def test_negative_budget_rejected(self):
        with pytest.raises(ContextError):
            UserContext("u", SCHEMA, budget=-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"budget": float("nan")},
            {"weights": {Dimension.ACCURACY: float("nan"), Dimension.COST: 1.0}},
            {"weights": {Dimension.ACCURACY: float("inf"), Dimension.COST: 1.0}},
            {"weights": {Dimension.ACCURACY: 1.0, Dimension.COST: float("-inf")}},
        ],
        ids=["nan-budget", "nan-weight", "inf-weight", "minus-inf-weight"],
    )
    def test_non_finite_input_rejected(self, kwargs):
        """A NaN budget never binds (every ``cost > budget`` is false), and
        a non-finite weight normalises every weight to NaN."""
        with pytest.raises(ContextError):
            UserContext("u", SCHEMA, **kwargs)

    def test_meets_floors(self):
        ctx = UserContext("u", SCHEMA, floors={Dimension.ACCURACY: 0.7})
        assert ctx.meets_floors({Dimension.ACCURACY: 0.8})
        assert not ctx.meets_floors({Dimension.ACCURACY: 0.6})
        assert not ctx.meets_floors({})

    def test_profiles_differ(self):
        precision = UserContext.precision_first("p", SCHEMA)
        completeness = UserContext.completeness_first("c", SCHEMA)
        assert precision.weight(Dimension.ACCURACY) > completeness.weight(
            Dimension.ACCURACY
        )
        assert completeness.weight(Dimension.COMPLETENESS) > precision.weight(
            Dimension.COMPLETENESS
        )

    def test_scope(self):
        ctx = UserContext(
            "u",
            SCHEMA,
            scope_attribute="product",
            scope_predicate=lambda v: v in {"tv", "radio"},
        )
        assert ctx.in_scope(Record.of({"product": "tv"}))
        assert not ctx.in_scope(Record.of({"product": "sofa"}))
        unscoped = UserContext("u2", SCHEMA)
        assert unscoped.in_scope(Record.of({"product": "sofa"}))

    def test_with_budget(self):
        ctx = UserContext("u", SCHEMA).with_budget(10)
        assert ctx.budget == 10

    def test_describe_mentions_priorities(self):
        text = UserContext.precision_first("p", SCHEMA).describe()
        assert "accuracy" in text and "floors" in text


class TestDataContext:
    @pytest.fixture
    def ctx(self):
        master = Table.from_rows(
            "catalog", [{"product": "tv"}, {"product": "radio"}]
        )
        reference = Table.from_rows(
            "currencies", [{"currency": "GBP"}, {"currency": "USD"}]
        )
        onto = Ontology()
        onto.add_concept("Product")
        onto.add_property("price", "Product", DataType.CURRENCY)
        return (
            DataContext("test")
            .add_master("catalog", master)
            .add_reference("currencies", reference)
            .with_ontology(onto)
        )

    def test_master_lookup(self, ctx):
        assert ctx.master_values("catalog", "product") == {"tv", "radio"}
        with pytest.raises(ContextError):
            ctx.master("absent")

    def test_duplicate_registration_rejected(self, ctx):
        with pytest.raises(ContextError):
            ctx.add_master("catalog", ctx.master("catalog"))
        with pytest.raises(ContextError):
            ctx.add_reference("currencies", ctx.reference_data["currencies"])

    def test_vocabulary(self, ctx):
        assert ctx.vocabulary("currency") == {"GBP", "USD"}
        assert ctx.vocabulary("missing") == set()

    def test_knows_attribute(self, ctx):
        assert ctx.knows_attribute("currency")
        assert ctx.knows_attribute("price")  # via ontology
        assert not ctx.knows_attribute("mystery")

    def test_validate_value_with_vocabulary(self, ctx):
        assert ctx.validate_value("currency", "GBP") == 1.0
        assert ctx.validate_value("currency", "XXX") == 0.0

    def test_validate_value_with_ontology_type(self, ctx):
        assert ctx.validate_value("price", "$9.99") == pytest.approx(0.8)
        assert ctx.validate_value("price", "not-a-price") == pytest.approx(0.1)

    def test_validate_value_silent_context(self, ctx):
        assert ctx.validate_value("mystery", "anything") == 0.5

    def test_summary(self, ctx):
        summary = ctx.summary()
        assert summary["master_tables"] == 1
        assert summary["ontology_properties"] == 1
