"""Tests for quality metrics, constraints, and repair."""

import datetime

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.errors import RepairError
from repro.model.annotations import Dimension
from repro.model.records import Record, Table
from repro.model.schema import DataType, Schema, infer_types
from repro.model.values import Value
from repro.quality.constraints import FunctionalDependency, violations
from repro.quality.metrics import QualityAnalyser
from repro.quality.repair import repair_table

TODAY = datetime.date(2016, 3, 15)


class TestMetrics:
    @pytest.fixture
    def analyser(self):
        master = Table.from_rows(
            "catalog",
            [
                {"product_id": "P1", "product": "Acme TV"},
                {"product_id": "P2", "product": "Globex Radio"},
            ],
        )
        context = DataContext("c").add_master("catalog", master)
        return QualityAnalyser(context, today=TODAY)

    def test_completeness(self, analyser):
        table = Table.from_rows("t", [{"a": 1, "b": None}, {"a": 2, "b": 3}])
        assert analyser.completeness(table) == pytest.approx(0.75)

    def test_accuracy_against_master(self, analyser):
        table = Table.from_rows(
            "t",
            [
                {"product_id": "P1", "product": "Acme TV"},      # right
                {"product_id": "P2", "product": "Globex Rdio"},  # wrong
                {"product_id": "P9", "product": "Unknown"},      # no join
            ],
        )
        accuracy = analyser.accuracy_against_master(table, "catalog", "product_id")
        assert accuracy == pytest.approx(0.5)

    def test_accuracy_none_without_overlap(self, analyser):
        table = Table.from_rows("t", [{"product_id": "P9", "product": "X"}])
        assert analyser.accuracy_against_master(table, "catalog", "product_id") is None

    def test_timeliness(self, analyser):
        table = Table.from_rows(
            "t",
            [
                {"updated": TODAY},
                {"updated": TODAY - datetime.timedelta(days=15)},
                {"updated": TODAY - datetime.timedelta(days=300)},
            ],
            schema=Schema.of(("updated", DataType.DATE)),
        )
        # coerce raw strings: build with raw dates directly
        score = analyser.timeliness(table, "updated")
        assert score == pytest.approx((1.0 + 0.5 + 0.0) / 3)

    def test_timeliness_missing_attribute(self, analyser):
        assert analyser.timeliness(Table.from_rows("t", [{"a": 1}]), "updated") is None

    def test_consistency_blends_constraints(self, analyser):
        rows = [
            {"postcode": "OX1", "city": "Oxford"},
            {"postcode": "OX1", "city": "Cambridge"},
            {"postcode": "M1", "city": "Manchester"},
        ]
        table = Table.from_rows("t", rows)
        fd = FunctionalDependency(("postcode",), "city")
        with_constraints = analyser.consistency(table, [fd])
        without = analyser.consistency(table)
        assert with_constraints < without

    @given(
        st.lists(
            st.fixed_dictionaries({
                "price": st.sampled_from(["10.0", "oops", None, " ", "7", 3]),
                "city": st.sampled_from(["Oxford", None, "12", "2016-03-15"]),
                "empty": st.none(),
                "_truth": st.sampled_from(["x", 1.5]),
            }),
            max_size=12,
        )
    )
    def test_consistency_type_score_is_the_column_profiles_mean(self, rows):
        """Type agreement per column from one type pass equals the mean
        of the columns' type consistency as a column profile measured it
        (the share of non-null cells of the dominant type, 1.0 for an
        empty column), to the bit."""
        table = Table.from_rows(
            "t", rows, schema=Schema.of("price", "city", "empty", "_truth")
        )

        def type_consistency(name):
            raws = [v.raw for v in table.column(name) if not v.is_missing]
            counts = infer_types(raws)[1]
            populated = sum(counts.values())
            if populated == 0:
                return 1.0
            return counts[max(counts, key=lambda t: counts[t])] / populated

        columns = [
            type_consistency(name) for name in table.schema.names
            if not name.startswith("_")
        ]
        expected = sum(columns) / len(columns)
        analyser = QualityAnalyser(today=TODAY)
        assert analyser.consistency(table) == expected

    def test_relevance_scope(self, analyser):
        user = UserContext(
            "u",
            Schema.of("product"),
            scope_attribute="product",
            scope_predicate=lambda v: v == "Acme TV",
        )
        table = Table.from_rows(
            "t", [{"product": "Acme TV"}, {"product": "Sofa"}]
        )
        score = analyser.relevance(table, user)
        assert 0.3 < score < 1.0

    def test_analyse_writes_annotations(self, analyser):
        table = Table.from_rows("t", [{"product_id": "P1", "product": "Acme TV"}])
        report = analyser.analyse(
            table, master_key="catalog", join_attribute="product_id"
        )
        assert Dimension.ACCURACY in report.scores
        assert analyser.annotations.score("table:t", Dimension.ACCURACY) == 1.0
        assert "accuracy" in report.summary()


class TestConstraints:
    def test_fd_validation(self):
        with pytest.raises(RepairError):
            FunctionalDependency((), "x")
        with pytest.raises(RepairError):
            FunctionalDependency(("x",), "x")

    def test_fd_detects_violations(self):
        table = Table.from_rows(
            "t",
            [
                {"postcode": "OX1", "city": "Oxford"},
                {"postcode": "OX1", "city": "Oxfrod"},
                {"postcode": "EH8", "city": "Edinburgh"},
            ],
        )
        fd = FunctionalDependency(("postcode",), "city")
        found = fd.check(table)
        assert len(found) == 1
        assert len(found[0].records) == 2
        assert "OX1" in found[0].detail

    def test_fd_ignores_missing(self):
        table = Table.from_rows(
            "t", [{"postcode": None, "city": "A"}, {"postcode": None, "city": "B"}]
        )
        assert FunctionalDependency(("postcode",), "city").check(table) == []

    def test_violations_aggregates(self):
        table = Table.from_rows(
            "t",
            [
                {"a": "1", "b": "x", "c": "p"},
                {"a": "1", "b": "y", "c": "p"},
            ],
        )
        constraints = [
            FunctionalDependency(("a",), "b"),
            FunctionalDependency(("c",), "b"),
        ]
        assert len(violations(table, constraints)) == 2


class TestRepair:
    def test_repairs_to_consistency(self):
        table = Table.from_rows(
            "t",
            [
                {"postcode": "OX1", "city": "Oxford"},
                {"postcode": "OX1", "city": "Oxford"},
                {"postcode": "OX1", "city": "Oxfrod"},
            ],
        )
        fd = FunctionalDependency(("postcode",), "city")
        result = repair_table(table, [fd])
        assert violations(result.table, [fd]) == []
        assert len(result.repairs) == 1
        assert result.repairs[0].new_value == "Oxford"

    def test_cost_prefers_changing_low_confidence_cells(self):
        schema = Schema.of("postcode", "city")
        table = Table("t", schema)
        table.append(
            Record.of(
                {"postcode": "OX1", "city": Value.of("Oxford", confidence=0.95)}
            )
        )
        table.append(
            Record.of(
                {"postcode": "OX1", "city": Value.of("Oxfrod", confidence=0.2)}
            )
        )
        fd = FunctionalDependency(("postcode",), "city")
        result = repair_table(table, [fd])
        assert result.table[1].raw("city") == "Oxford"
        assert result.total_cost == pytest.approx(0.2)

    def test_repair_provenance_and_confidence(self):
        table = Table.from_rows(
            "t",
            [
                {"k": "1", "v": "a"},
                {"k": "1", "v": "a"},
                {"k": "1", "v": "b"},
            ],
        )
        result = repair_table(table, [FunctionalDependency(("k",), "v")])
        repaired_cell = result.table[2]["v"]
        assert repaired_cell.provenance.step.value == "repair"
        assert repaired_cell.confidence <= 0.7

    def test_clean_table_untouched(self):
        table = Table.from_rows(
            "t", [{"k": "1", "v": "a"}, {"k": "2", "v": "b"}]
        )
        result = repair_table(table, [FunctionalDependency(("k",), "v")])
        assert result.repairs == []
        assert result.total_cost == 0.0

    def test_interacting_constraints_reach_fixpoint(self):
        table = Table.from_rows(
            "t",
            [
                {"a": "1", "b": "x", "c": "p"},
                {"a": "1", "b": "y", "c": "q"},
                {"a": "1", "b": "x", "c": "q"},
            ],
        )
        constraints = [
            FunctionalDependency(("a",), "b"),
            FunctionalDependency(("b",), "c"),
        ]
        result = repair_table(table, constraints)
        assert violations(result.table, constraints) == []

    @given(st.lists(st.sampled_from(["x", "y", "z"]), min_size=2, max_size=12))
    def test_property_repair_always_consistent(self, values):
        rows = [{"k": "same", "v": value} for value in values]
        table = Table.from_rows("t", rows)
        fd = FunctionalDependency(("k",), "v")
        result = repair_table(table, [fd])
        assert violations(result.table, [fd]) == []
        # repaired column collapses to a single value
        assert len(result.table.distinct_raw("v")) == 1
