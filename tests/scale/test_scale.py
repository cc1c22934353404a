"""Tests for conjunctive queries, approximation, access bounds, partitioning."""

import random

import pytest

from repro.errors import QueryError
from repro.model.records import Table
from repro.resolution.er import EntityResolver
from repro.resolution.rules import ThresholdRule
from repro.scale.access import (
    AccessBudgetExceeded,
    AccessConstraint,
    BoundedEvaluator,
)
from repro.scale.approximation import approximate_count, sample_table
from repro.scale.partition import hash_partition, partitioned_resolve
from repro.scale.queries import Atom, ConjunctiveQuery, Variable

X, Y, Z = Variable("x"), Variable("y"), Variable("z")

OFFERS = Table.from_rows(
    "offers",
    [
        {"product": "tv", "retailer": "acme-shop", "price": 399},
        {"product": "tv", "retailer": "globex", "price": 389},
        {"product": "radio", "retailer": "acme-shop", "price": 25},
        {"product": "laptop", "retailer": "initech", "price": 999},
    ],
)
RETAILERS = Table.from_rows(
    "retailers",
    [
        {"name": "acme-shop", "country": "UK"},
        {"name": "globex", "country": "US"},
        {"name": "initech", "country": "UK"},
    ],
)
RELATIONS = {"offers": OFFERS, "retailers": RETAILERS}


class TestConjunctiveQueries:
    def test_single_atom_select(self):
        query = ConjunctiveQuery(
            ("r",),
            (Atom("offers", {"product": "tv", "retailer": Variable("r")}),),
        )
        rows = query.evaluate(RELATIONS)
        assert {row["r"] for row in rows} == {"acme-shop", "globex"}

    def test_join(self):
        query = ConjunctiveQuery(
            ("p", "c"),
            (
                Atom("offers", {"product": Variable("p"), "retailer": Variable("r")}),
                Atom("retailers", {"name": Variable("r"), "country": Variable("c")}),
            ),
        )
        rows = query.evaluate(RELATIONS)
        assert {"p": "tv", "c": "UK"} in rows
        assert {"p": "laptop", "c": "UK"} in rows

    def test_join_variable_must_agree(self):
        query = ConjunctiveQuery(
            ("p",),
            (
                Atom("offers", {"product": Variable("p"), "retailer": Variable("r")}),
                Atom("retailers", {"name": Variable("r"), "country": "US"}),
            ),
        )
        rows = query.evaluate(RELATIONS)
        assert {row["p"] for row in rows} == {"tv"}

    def test_distinct_semantics(self):
        query = ConjunctiveQuery(
            ("p",), (Atom("offers", {"product": Variable("p")}),)
        )
        assert query.count(RELATIONS) == 3

    def test_unsafe_head_rejected(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery(("zzz",), (Atom("offers", {"product": X}),))

    def test_empty_body_rejected(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery(("x",), ())

    def test_unknown_relation(self):
        query = ConjunctiveQuery(("x",), (Atom("mystery", {"a": X}),))
        with pytest.raises(QueryError):
            query.evaluate(RELATIONS)


class TestApproximation:
    def test_sample_rate_validation(self):
        with pytest.raises(QueryError):
            sample_table(OFFERS, 0.0, random.Random(1))

    def test_full_rate_keeps_everything(self):
        assert len(sample_table(OFFERS, 1.0, random.Random(1))) == 4

    def test_estimate_close_on_large_input(self):
        rows = [{"k": i % 50, "v": i} for i in range(3000)]
        table = Table.from_rows("big", rows)
        query = ConjunctiveQuery(("v",), (Atom("big", {"v": Variable("v")}),))
        answer = approximate_count(query, {"big": table}, rate=0.2, seed=7)
        assert answer.work_fraction < 0.4
        assert answer.estimate == pytest.approx(3000, rel=0.2)

    def test_work_fraction_reported(self):
        query = ConjunctiveQuery(("p",), (Atom("offers", {"product": Variable("p")}),))
        answer = approximate_count(query, RELATIONS, rate=0.5, seed=3)
        assert 0.0 <= answer.work_fraction <= 1.0


class TestBoundedEvaluation:
    CONSTRAINTS = [
        AccessConstraint("offers", ("product",), bound=10),
        AccessConstraint("retailers", ("name",), bound=1),
    ]

    def test_bounded_lookup(self):
        evaluator = BoundedEvaluator(self.CONSTRAINTS, budget=100)
        query = ConjunctiveQuery(
            ("r", "c"),
            (
                Atom("offers", {"product": "tv", "retailer": Variable("r")}),
                Atom("retailers", {"name": Variable("r"), "country": Variable("c")}),
            ),
        )
        rows = evaluator.evaluate(query, RELATIONS)
        assert {row["r"] for row in rows} == {"acme-shop", "globex"}
        assert evaluator.accesses <= 100

    def test_budget_enforced(self):
        evaluator = BoundedEvaluator(self.CONSTRAINTS, budget=1)
        query = ConjunctiveQuery(
            ("r",),
            (Atom("offers", {"product": "tv", "retailer": Variable("r")}),),
        )
        with pytest.raises(AccessBudgetExceeded):
            evaluator.evaluate(query, RELATIONS)

    def test_unbounded_query_rejected_statically(self):
        evaluator = BoundedEvaluator(self.CONSTRAINTS, budget=100)
        # No access path: retailers can only be entered via name, offers
        # via product; a full scan over countries has neither.
        query = ConjunctiveQuery(
            ("c",), (Atom("retailers", {"country": Variable("c")}),)
        )
        with pytest.raises(QueryError):
            evaluator.evaluate(query, RELATIONS)

    def test_atom_reordering_finds_plan(self):
        evaluator = BoundedEvaluator(self.CONSTRAINTS, budget=100)
        # retailers atom listed first, but only reachable after offers
        # binds ?r: the evaluator must reorder.
        query = ConjunctiveQuery(
            ("c",),
            (
                Atom("retailers", {"name": Variable("r"), "country": Variable("c")}),
                Atom("offers", {"product": "tv", "retailer": Variable("r")}),
            ),
        )
        rows = evaluator.evaluate(query, RELATIONS)
        assert {row["c"] for row in rows} == {"UK", "US"}

    def test_constraint_validation(self):
        with pytest.raises(QueryError):
            AccessConstraint("r", ("a",), bound=0)
        with pytest.raises(QueryError):
            BoundedEvaluator([], budget=0)


class TestPartitioning:
    def test_hash_partition_covers_all_records(self):
        parts = hash_partition(OFFERS, 3)
        assert sum(len(p) for p in parts) == len(OFFERS)

    def test_partition_deterministic(self):
        a = hash_partition(OFFERS, 3)
        b = hash_partition(OFFERS, 3)
        assert [len(p) for p in a] == [len(p) for p in b]

    def test_partition_validation(self):
        from repro.errors import WranglingError
        with pytest.raises(WranglingError):
            hash_partition(OFFERS, 0)

    def test_partitioned_resolve_matches_colocated_duplicates(self):
        words = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
                 "golf", "hotel")
        names = [f"{a} {b}" for a in words for b in words if a != b][:40]
        rows = []
        for name in names:
            rows.append({"name": name})
            rows.append({"name": name})
        table = Table.from_rows("t", rows)
        resolver = EntityResolver(rule=ThresholdRule(0.95), small_table_cutoff=1000)
        result = partitioned_resolve(
            table, resolver, 4, blocking_key=lambda r: str(r.raw("name")),
        )
        assert len(result.non_singleton()) == 40
        single = resolver.resolve(table)
        # blocking key co-locates duplicates: same clusters, fewer comparisons
        assert result.compared < single.compared
