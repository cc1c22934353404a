"""Cross-module property-based tests for load-bearing invariants.

These pin down the guarantees the architecture leans on: incremental
dataflow equals from-scratch recomputation, repair is idempotent and
convergent, fusion never invents values, similarity measures behave like
similarities, and provenance never loses a source.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataflow import Dataflow
from repro.fusion.strategies import STRATEGIES, AttributeClaims, resolve
from repro.matching.similarity import monge_elkan
from repro.model.records import Record, Table
from repro.model.values import Value
from repro.quality.constraints import FunctionalDependency, violations
from repro.quality.repair import repair_table

names = st.text(
    alphabet="abcdefg 0123456789", min_size=0, max_size=20
)


class TestMongeElkanProperties:
    @given(names, names)
    def test_bounds(self, a, b):
        assert 0.0 <= monge_elkan(a, b) <= 1.0 + 1e-9

    @given(names, names)
    def test_symmetry(self, a, b):
        assert monge_elkan(a, b) == pytest.approx(monge_elkan(b, a))

    @given(names)
    def test_identity(self, a):
        assert monge_elkan(a, a) == pytest.approx(1.0)


class TestDataflowEquivalence:
    """Incremental recomputation must equal a from-scratch evaluation."""

    @staticmethod
    def build(cell):
        """The chain x0 -> x1 -> x2 -> x3 -> sum; x0 reads ``cell[0]``."""
        flow = Dataflow()
        flow.add("x0", lambda inputs: cell[0])
        for index in range(1, 4):
            flow.add(
                f"x{index}",
                lambda inputs, i=index: inputs[f"x{i-1}"] * 2 + i,
                (f"x{index-1}",),
            )
        flow.add(
            "sum",
            lambda inputs: inputs["x1"] + inputs["x2"] + inputs["x3"],
            ("x1", "x2", "x3"),
        )
        return flow

    @given(
        st.lists(st.integers(-100, 100), min_size=1, max_size=6),
        st.lists(st.sampled_from(["x1", "x2", "x3", "sum"]), max_size=6),
    )
    @settings(max_examples=50)
    def test_incremental_equals_fresh(self, inputs, invalidations):
        cell = [inputs[0]]
        flow = self.build(cell)
        flow.pull("sum")
        for value, node in zip(inputs[1:], invalidations):
            cell[0] = value
            flow.invalidate("x0")
            flow.invalidate(node)
            flow.pull("sum")
        for node in invalidations:
            flow.invalidate(node)
        incremental = flow.pull("sum")
        fresh = self.build(list(cell))
        assert incremental == fresh.pull("sum")


class TestRepairProperties:
    fd = FunctionalDependency(("k",), "v")

    @given(
        st.lists(
            st.tuples(st.sampled_from("ab"), st.sampled_from("xyz")),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=60)
    def test_repair_idempotent(self, pairs):
        table = Table.from_rows(
            "t", [{"k": k, "v": v} for k, v in pairs]
        )
        once = repair_table(table, [self.fd])
        twice = repair_table(once.table, [self.fd])
        assert violations(once.table, [self.fd]) == []
        assert twice.repairs == []

    @given(
        st.lists(
            st.tuples(st.sampled_from("ab"), st.sampled_from("xyz")),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=60)
    def test_repair_only_touches_rhs(self, pairs):
        table = Table.from_rows("t", [{"k": k, "v": v} for k, v in pairs])
        result = repair_table(table, [self.fd])
        for original, repaired in zip(table.records, result.table.records):
            assert original.raw("k") == repaired.raw("k")


class TestFusionProperties:
    @given(
        st.sampled_from(sorted(STRATEGIES)),
        st.lists(
            st.tuples(
                st.integers(0, 5),
                st.floats(0.01, 1.0),
                st.floats(0.0, 1.0),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=80)
    def test_fused_value_is_a_candidate(self, strategy, spec):
        claims = AttributeClaims(
            [Value.of(raw) for raw, __, __ in spec],
            [f"s{i}" for i in range(len(spec))],
            [reliability for __, reliability, __ in spec],
            [recency for __, __, recency in spec],
        )
        choice = resolve(strategy, claims)
        assert choice.value.raw in {value.raw for value in claims.values}
        assert 0.0 <= choice.confidence <= 1.0
        assert choice.supporters
        assert set(choice.supporters) <= set(claims.sources)

    @given(st.integers(0, 100), st.integers(1, 8))
    def test_unanimous_candidates_fuse_to_that_value(self, raw, n):
        claims = AttributeClaims(
            [Value.of(raw)] * n, [f"s{i}" for i in range(n)], [0.5] * n,
            [0.5] * n,
        )
        for strategy in STRATEGIES:
            choice = resolve(strategy, claims)
            assert choice.value.raw == raw


class TestProvenanceConservation:
    def test_pipeline_never_loses_sources(self):
        """Every wrangled cell's provenance leaves are registered sources."""
        import datetime
        from repro.context.data_context import DataContext
        from repro.core.wrangler import Wrangler
        from repro.context.user_context import UserContext
        from repro.datagen.ontologies import product_ontology
        from repro.datagen.products import TARGET_SCHEMA, generate_world
        from repro.sources.memory import MemorySource

        world = generate_world(n_products=15, n_sources=3, seed=777)
        user = UserContext.precision_first("u", TARGET_SCHEMA)
        data = DataContext("p").with_ontology(product_ontology())
        wrangler = Wrangler(user, data, today=datetime.date(2016, 3, 15))
        for name, rows in world.source_rows.items():
            wrangler.add_source(MemorySource(name, rows))
        result = wrangler.run()
        legal = set(world.source_rows)
        for record in result.table:
            for name, value in record.cells.items():
                if name.startswith("_") or value.is_missing:
                    continue
                assert value.provenance.sources() <= legal
