"""Tests (incl. property-based) for the uncertainty algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model.uncertainty import (
    BetaReliability,
    Evidence,
    clamp,
    log_odds_pool,
    pool_evidence,
)

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestLogOddsPool:
    def test_no_evidence_returns_prior(self):
        assert log_odds_pool([], prior=0.3) == pytest.approx(0.3)

    def test_supporting_evidence_raises_belief(self):
        assert log_odds_pool([0.9]) > 0.5

    def test_conflicting_evidence_cancels(self):
        assert log_odds_pool([0.8, 0.2]) == pytest.approx(0.5, abs=1e-9)

    def test_weights_discount(self):
        strong = log_odds_pool([0.9], [1.0])
        weak = log_odds_pool([0.9], [0.25])
        assert strong > weak > 0.5

    def test_mismatched_weights_raise(self):
        with pytest.raises(ValueError):
            log_odds_pool([0.5], [1.0, 2.0])

    @given(st.lists(probs, max_size=6))
    def test_bounds(self, ps):
        assert 0.0 <= log_odds_pool(ps) <= 1.0

    @given(probs)
    def test_extreme_input_does_not_saturate_to_exact_one(self, prior):
        result = log_odds_pool([1.0], prior=clamp(prior, 0.01, 0.99))
        assert result < 1.0


class TestEvidence:
    def test_validation(self):
        with pytest.raises(ValueError):
            Evidence("x", 1.5)
        with pytest.raises(ValueError):
            Evidence("x", 0.5, weight=-1.0)

    def test_pool_default_prior(self):
        assert pool_evidence([]) == 0.5

    def test_pool_log_odds(self):
        pooled = pool_evidence(
            [Evidence("name", 0.8), Evidence("ontology", 0.7)]
        )
        assert pooled > 0.8


class TestBetaReliability:
    def test_prior_mean(self):
        assert BetaReliability(1, 1).mean == pytest.approx(0.5)

    def test_updates_move_mean(self):
        r = BetaReliability()
        for __ in range(8):
            r.update(True)
        assert r.mean > 0.8

    def test_failure_updates(self):
        r = BetaReliability()
        r.update(False, weight=3.0)
        assert r.mean < 0.5

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BetaReliability(0, 1)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            BetaReliability().update(True, weight=-0.5)

    def test_interval_narrows_with_evidence(self):
        r = BetaReliability()
        wide = r.credible_interval()
        for __ in range(50):
            r.update(True)
        narrow = r.credible_interval()
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_copy_is_independent(self):
        r = BetaReliability(2, 2)
        c = r.copy()
        c.update(True)
        assert r.alpha == 2

    @given(
        st.lists(st.booleans(), max_size=30),
    )
    def test_mean_always_in_unit_interval(self, outcomes):
        r = BetaReliability()
        for outcome in outcomes:
            r.update(outcome)
        assert 0.0 < r.mean < 1.0
        assert r.strength == pytest.approx(2.0 + len(outcomes))
