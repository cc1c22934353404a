"""Regression tests for the ER hot path and blocking edge cases.

The resolver used to compute every per-field comparison twice per
candidate pair — once for the similarity, once for the rule's vector.
These tests pin the fix: ``field.compare`` runs exactly once per
(pair, field), decisions are unchanged, and the vector route is
bit-identical to the direct similarity.
"""

import pytest

from repro.model.records import Table
from repro.resolution.blocking import full_pairs
from repro.resolution.comparison import FieldComparator, RecordComparator
from repro.resolution.er import EntityResolver, stable_cluster_id
from repro.resolution.rules import ThresholdRule

ROWS = [
    {"name": "Acme Laptop Pro 15", "price": 999.0},
    {"name": "Acme Laptop Pro 15", "price": 989.0},
    {"name": "Acme Lptop Pro 15", "price": 999.0},
    {"name": "Globex Camera Z", "price": 450.0},
    {"name": "Globex Camera Z", "price": 455.0},
    {"name": "Initech Monitor Q", "price": 120.0},
]


@pytest.fixture
def table():
    return Table.from_rows("offers", ROWS)


class CountingField(FieldComparator):
    """A field comparator that counts its ``compare`` invocations."""

    calls = 0

    def compare(self, left, right):
        CountingField.calls += 1
        return super().compare(left, right)


class TestSingleComparePerPairField:
    def test_field_compare_runs_once_per_pair_and_field(self, table):
        CountingField.calls = 0
        comparator = RecordComparator((
            CountingField("name", measure="jaro"),
            CountingField("name", measure="jaccard"),
        ))
        resolver = EntityResolver(
            comparator=comparator, rule=ThresholdRule(0.8)
        )
        result = resolver.resolve(table)
        n_pairs = len(full_pairs(table))
        assert result.compared == n_pairs
        # The old hot path called compare twice per (pair, field): once
        # inside similarity(), once inside vector().  Now: exactly once.
        assert CountingField.calls == n_pairs * 2  # 2 fields, 1 call each

    def test_decisions_unchanged_by_the_single_pass(self, table):
        comparator = RecordComparator((
            FieldComparator("name", measure="jaro"),
        ))
        resolver = EntityResolver(
            comparator=comparator, rule=ThresholdRule(0.8)
        )
        result = resolver.resolve(table)
        # The misspelled and reprised Acme offers merge; Globex pair
        # merges; the monitor stays single.
        sizes = sorted(len(c) for c in result.clusters)
        assert sizes == [1, 2, 3]

    def test_similarity_from_vector_is_bit_identical(self, table):
        comparator = RecordComparator((
            FieldComparator("name", measure="jaro", weight=2.0),
            FieldComparator("name", measure="jaccard", weight=0.5),
            FieldComparator("price", measure="numeric", weight=1.0),
        ))
        for i, j in full_pairs(table):
            left, right = table.records[i], table.records[j]
            vector = comparator.vector(left, right)
            assert comparator.similarity_from_vector(vector) == (
                comparator.similarity(left, right)
            )

    def test_all_missing_vector_scores_zero(self):
        comparator = RecordComparator((FieldComparator("name"),))
        assert comparator.similarity_from_vector([None]) == 0.0

    def test_custom_comparator_without_vector_method_still_works(self, table):
        class LegacyComparator:
            """A duck-typed comparator predating similarity_from_vector."""

            fields = (FieldComparator("name"),)

            def vector(self, left, right):
                return [f.compare(left, right) for f in self.fields]

            def similarity(self, left, right):
                scores = [s for s in self.vector(left, right) if s is not None]
                return sum(scores) / len(scores) if scores else 0.0

        resolver = EntityResolver(
            comparator=LegacyComparator(), rule=ThresholdRule(0.8)
        )
        result = resolver.resolve(table)
        assert len(result.clusters) >= 1


class TestStableClusterIds:
    def test_id_is_content_derived(self, table):
        cluster_id = stable_cluster_id(table.records[:2])
        assert cluster_id.startswith("entity-")
        assert cluster_id == stable_cluster_id(table.records[:2])
        assert cluster_id == stable_cluster_id(
            list(reversed(table.records[:2]))
        )
        assert cluster_id != stable_cluster_id(table.records[3:5])


class _CountingPattern:
    """A regex stand-in that counts ``findall`` invocations."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def findall(self, text):
        self.calls += 1
        return self.inner.findall(text)


class TestTokenisationMemoised:
    def test_tokenisation_runs_once_per_record_per_pass(self, monkeypatch):
        """Token sets are memoised per value, not recomputed per pair.

        A full-pairs resolve over n records evaluates O(n^2) candidate
        pairs; without a memo every pair re-tokenised both sides, so
        tokenisation ran O(n^2) times per pass.  This pins the fixed
        contract: at most once per distinct value per tokenisation (the
        module's token_set cache + the Monge-Elkan name tokens the
        resolve's scoring context owns) while the pair count stays
        quadratic.
        """
        from repro.matching import similarity

        counting = _CountingPattern(similarity._TOKEN_RE)
        monkeypatch.setattr(similarity, "_TOKEN_RE", counting)
        monkeypatch.setattr(similarity, "_token_set_cache", {})
        rows = [
            {"name": f"Acme Widget Model {i:03d}", "price": float(i)}
            for i in range(28)
        ]
        table = Table.from_rows("offers", rows)
        comparator = RecordComparator((
            FieldComparator("name", measure="jaccard"),
            FieldComparator("name", measure="tokens"),
        ))
        resolver = EntityResolver(
            comparator=comparator, rule=ThresholdRule(0.9)
        )
        result = resolver.resolve(table)
        n_pairs = len(full_pairs(table))
        assert result.compared == n_pairs
        assert n_pairs > len(rows)  # quadratic pairs, linear tokenisation
        assert counting.calls <= 2 * len(rows), (
            f"tokenised {counting.calls} times for {len(rows)} records"
        )

    def test_memoised_results_identical(self, monkeypatch):
        """Memoisation never changes a score, only the call count."""
        from repro.matching import similarity

        monkeypatch.setattr(similarity, "_token_set_cache", {})
        names = similarity.NameScores()
        pairs = [
            ("Acme Laptop Pro 15", "Acme Lptop Pro 15"),
            ("The Acme Co", "Acme"),
            ("", "Globex Camera Z"),
        ]
        for a, b in pairs:
            cold_tokens = similarity.token_set(a)
            cold_score = names.score(a, b)
            assert similarity.token_set(a) == cold_tokens  # cache hit
            assert names.score(a, b) == cold_score          # table hit
            assert similarity.monge_elkan(a, b) == cold_score

    def test_name_tokens_survive_more_titles_than_any_bounded_cache(
        self, monkeypatch
    ):
        """Name tokens belong to the resolve, not to a bounded module
        cache: the old 4,096-entry FIFO evicted what the kernel compile
        had just filled once a table had more distinct titles than
        that, and the scalar loop silently re-tokenised per pair."""
        from repro.matching import similarity

        n_titles = similarity._CACHE_LIMIT + 200
        rows = [
            {"name": f"Acme Widget {i % 7} Model {i:05d}"}
            for i in range(n_titles)
        ]
        table = Table.from_rows("offers", rows)
        # Neighbouring titles only: the kernel compile tokenises every
        # row first, so by the time the scalar loop walked the survivors
        # the FIFO had wrapped and evicted each title just before use.
        neighbours = [(i, i + 1) for i in range(n_titles - 1)]
        counting = _CountingPattern(similarity._TOKEN_RE)
        monkeypatch.setattr(similarity, "_TOKEN_RE", counting)
        resolver = EntityResolver(
            comparator=RecordComparator((
                FieldComparator("name", measure="tokens"),
            )),
            rule=ThresholdRule(0.5),
            blocker=lambda table: neighbours,
        )
        result = resolver.resolve(table)
        assert result.compared == n_titles - 1
        assert counting.calls == n_titles

    def test_cache_stays_bounded(self, monkeypatch):
        from repro.matching import similarity

        monkeypatch.setattr(similarity, "_token_set_cache", {})
        for i in range(similarity._CACHE_LIMIT + 100):
            similarity.token_set(f"value {i}")
        assert len(similarity._token_set_cache) <= similarity._CACHE_LIMIT
