"""Tests (incl. property-based) for the similarity library."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.matching.similarity import (
    jaccard,
    jaro,
    jaro_winkler,
    name_similarity,
    numeric_similarity,
    token_set,
)

words = st.text(alphabet="abcdefgh ", max_size=12)


class TestJaro:
    def test_identical(self):
        assert jaro("martha", "martha") == 1.0

    def test_known_value(self):
        assert jaro("martha", "marhta") == pytest.approx(0.9444, abs=1e-3)

    def test_disjoint(self):
        assert jaro("abc", "xyz") == 0.0

    def test_winkler_prefix_boost(self):
        assert jaro_winkler("prefixxx", "prefixyy") > jaro("prefixxx", "prefixyy")

    @given(words, words)
    def test_property_bounds_and_symmetry(self, a, b):
        score = jaro_winkler(a, b)
        assert 0.0 <= score <= 1.0
        assert score == pytest.approx(jaro_winkler(b, a))


class TestTokenMeasures:
    def test_token_set(self):
        assert token_set("Offer_Price (GBP)") == {"offer", "price", "gbp"}

    def test_jaccard(self):
        assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)
        assert jaccard(set(), set()) == 1.0


class TestNumericSimilarity:
    def test_equal(self):
        assert numeric_similarity(5.0, 5.0) == 1.0
        assert numeric_similarity(0.0, 0.0) == 1.0

    def test_relative(self):
        assert numeric_similarity(100.0, 90.0) == pytest.approx(0.9)

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_property_bounds_and_symmetry(self, a, b):
        score = numeric_similarity(a, b)
        assert 0.0 <= score <= 1.0
        assert score == pytest.approx(numeric_similarity(b, a))


class TestNameSimilarity:
    def test_snake_case_vs_words(self):
        assert name_similarity("offer_price", "offer price") == 1.0

    def test_shared_token(self):
        assert name_similarity("offer_price", "price") > 0.4

    def test_abbreviation(self):
        assert name_similarity("cat", "category") > 0.7

    def test_unrelated(self):
        assert name_similarity("price", "colour") < 0.5

    def test_empty(self):
        assert name_similarity("", "price") == 0.0

    @given(words, words)
    def test_property_bounds(self, a, b):
        assert 0.0 <= name_similarity(a, b) <= 1.0
