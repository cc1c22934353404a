"""Tests for blocking, comparison, rules, and the ER pipeline."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ResolutionError
from repro.model.records import Record, Table
from repro.model.schema import Attribute, DataType, Schema
from repro.resolution.blocking import (
    as_pair_set,
    full_pairs,
    recall_of,
    token_blocking,
)
from repro.resolution.comparison import (
    FieldComparator,
    RecordComparator,
    default_comparator,
    geo_similarity,
)
from repro.resolution.er import EntityResolver
from repro.resolution.rules import ThresholdRule, fit_threshold

ROWS = [
    {"name": "Acme Laptop Pro 15", "price": 999.0},   # 0
    {"name": "Acme Laptop Pro 15", "price": 989.0},   # 1 dup of 0
    {"name": "Acme Lptop Pro 15", "price": 999.0},    # 2 misspelled dup of 0
    {"name": "Globex Camera Z", "price": 450.0},      # 3
    {"name": "Globex Camera Z", "price": 455.0},      # 4 dup of 3
    {"name": "Initech Monitor Q", "price": 120.0},    # 5
]


@pytest.fixture
def table():
    return Table.from_rows("offers", ROWS)


class TestBlocking:
    def test_full_pairs_count(self, table):
        assert len(full_pairs(table)) == 15

    def test_token_blocking_keeps_true_pairs(self, table):
        pairs = as_pair_set(token_blocking(table, ["name"]))
        assert (0, 1) in pairs
        assert (3, 4) in pairs
        assert len(pairs) < 15

    def test_token_blocking_drops_giant_blocks(self):
        rows = [{"name": f"common item {i}"} for i in range(30)]
        pairs = token_blocking(
            Table.from_rows("t", rows), ["name"], max_block_size=10
        )
        assert as_pair_set(pairs) == set()

    def test_recall_of(self):
        assert recall_of([(0, 1)], [(0, 1), (2, 3)]) == 0.5
        assert recall_of([], []) == 1.0


class TestComparison:
    def test_unknown_measure_rejected(self):
        with pytest.raises(ResolutionError):
            FieldComparator("x", measure="psychic")

    def test_empty_comparator_rejected(self):
        with pytest.raises(ResolutionError):
            RecordComparator(())

    def test_missing_fields_skipped(self):
        comparator = RecordComparator(
            (FieldComparator("a"), FieldComparator("b"))
        )
        left = Record.of({"a": "same", "b": None})
        right = Record.of({"a": "same", "b": "thing"})
        vector = comparator.vector(left, right)
        assert vector[0] == 1.0
        assert vector[1] is None
        assert comparator.similarity(left, right) == 1.0

    def test_no_comparable_fields_is_zero(self):
        comparator = RecordComparator((FieldComparator("a"),))
        assert comparator.similarity(Record.of({"a": None}), Record.of({"a": None})) == 0.0

    def test_weights(self):
        comparator = RecordComparator(
            (
                FieldComparator("a", "exact", weight=3.0),
                FieldComparator("b", "exact", weight=1.0),
            )
        )
        left = Record.of({"a": "x", "b": "y"})
        right = Record.of({"a": "x", "b": "z"})
        assert comparator.similarity(left, right) == pytest.approx(0.75)

    def test_geo_similarity(self):
        assert geo_similarity("51.75, -1.25", "51.75, -1.25") == 1.0
        near = geo_similarity("51.75, -1.25", "51.751, -1.25")  # ~100 m
        across_town = geo_similarity("51.75, -1.25", "51.78, -1.25")  # ~3 km
        far = geo_similarity("51.75, -1.25", "53.48, -2.24")  # another city
        assert near > 0.95
        assert near > across_town > far
        assert far < 0.01
        assert geo_similarity("garbage", "51,1") == 0.0

    def test_default_comparator_types(self):
        schema = Schema(
            (
                Attribute("name", DataType.STRING, required=True),
                Attribute("price", DataType.CURRENCY),
                Attribute("url", DataType.URL),
                Attribute("geo", DataType.GEO),
                Attribute("brand", DataType.STRING),
                Attribute("_truth", DataType.STRING),
            )
        )
        comparator = default_comparator(schema)
        names = [field.attribute for field in comparator.fields]
        assert "_truth" not in names
        # transient observations are not identity evidence
        assert "price" not in names
        assert "url" not in names
        by_name = {f.attribute: f for f in comparator.fields}
        assert by_name["geo"].measure == "geo"
        assert by_name["geo"].weight == 1.0
        assert by_name["name"].measure == "tokens"
        assert by_name["name"].weight == 3.0
        assert by_name["brand"].weight == 0.5


class TestRules:
    def test_threshold_rule(self):
        rule = ThresholdRule(0.8)
        assert rule.decide(0.9, []).is_match
        assert not rule.decide(0.7, []).is_match
        assert rule.decide(1.0, []).confidence > rule.decide(0.81, []).confidence

    def test_threshold_validation(self):
        with pytest.raises(ResolutionError):
            ThresholdRule(1.5)

    def test_fit_threshold_separates(self):
        sims = [0.95, 0.9, 0.92, 0.4, 0.3, 0.5]
        labels = [True, True, True, False, False, False]
        rule = fit_threshold(sims, labels)
        assert 0.5 < rule.threshold <= 0.9
        assert all(rule.decide(s, []).is_match == l for s, l in zip(sims, labels))

    def test_fit_threshold_empty(self):
        assert fit_threshold([], []).threshold == 0.8

    def test_fit_threshold_mismatched(self):
        with pytest.raises(ResolutionError):
            fit_threshold([0.5], [])


class TestEntityResolver:
    def test_clusters_duplicates(self, table):
        resolver = EntityResolver(rule=ThresholdRule(0.85))
        result = resolver.resolve(table)
        by_rid = {}
        for cluster in result.clusters:
            for record in cluster.records:
                by_rid[record.raw("name")] = cluster.cluster_id
        # the two exact Globex duplicates must share a cluster
        assert len({c.cluster_id for c in result.clusters}) == len(result.clusters)
        globex = [
            cluster for cluster in result.clusters
            if any("Globex" in str(r.raw("name")) for r in cluster.records)
        ]
        assert len(globex) == 1 and len(globex[0]) == 2

    def test_transitive_closure(self, table):
        resolver = EntityResolver(rule=ThresholdRule(0.8))
        result = resolver.resolve(table)
        acme = [
            cluster for cluster in result.clusters
            if any("Acme" in str(r.raw("name")) for r in cluster.records)
        ]
        assert len(acme) == 1
        assert len(acme[0]) == 3  # misspelled variant joins transitively

    def test_pair_set_is_transitively_closed(self, table):
        resolver = EntityResolver(rule=ThresholdRule(0.8))
        result = resolver.resolve(table)
        pairs = result.pair_set()
        rid_cluster = {
            record.rid: cluster.cluster_id
            for cluster in result.clusters
            for record in cluster.records
        }
        for left, right in pairs:
            assert rid_cluster[left] == rid_cluster[right]

    def test_strict_threshold_yields_singletons(self, table):
        resolver = EntityResolver(rule=ThresholdRule(1.0))
        result = resolver.resolve(table)
        assert all(len(c) == 1 for c in result.clusters)
        # misspelled/priced variants differ from originals at sim < 1.0
        assert len(result.clusters) >= 5

    def test_counts(self, table):
        resolver = EntityResolver()
        result = resolver.resolve(table)
        assert result.candidate_pairs == 15  # small table: exhaustive
        assert result.compared == 15

    def test_blocking_used_for_large_tables(self):
        rows = [{"name": f"unique item {i} {i}", "price": float(i)} for i in range(60)]
        resolver = EntityResolver(small_table_cutoff=10)
        result = resolver.resolve(Table.from_rows("big", rows))
        assert result.candidate_pairs < 60 * 59 / 2

    def test_cluster_sources(self):
        t = Table("t", Schema.of("name"))
        t.append(Record.of({"name": "same thing"}, source="a"))
        t.append(Record.of({"name": "same thing"}, source="b"))
        result = EntityResolver(rule=ThresholdRule(0.9)).resolve(t)
        assert result.clusters[0].sources == {"a", "b"}

    @given(st.integers(min_value=0, max_value=100))
    def test_property_clusters_partition_records(self, seed):
        import random
        rng = random.Random(seed)
        rows = [
            {"name": rng.choice(["alpha beta", "gamma delta", "epsilon zeta"])
             + (" variant" if rng.random() < 0.5 else "")}
            for __ in range(12)
        ]
        result = EntityResolver(rule=ThresholdRule(0.7)).resolve(
            Table.from_rows("t", rows)
        )
        seen = [r.rid for c in result.clusters for r in c.records]
        assert len(seen) == 12
        assert len(set(seen)) == 12
