"""Tests for copy detection and copy-aware truth discovery."""

import random

import pytest

from repro.errors import FusionError
from repro.fusion.truth import AccuEM, Claim, detect_copying


def copier_world(n_items=60, n_copiers=4, seed=3):
    """Two accurate independents vs a bloc copying one stale feed."""
    rng = random.Random(seed)
    truth = {f"i{i}": i * 7 + 1 for i in range(n_items)}
    claims = []
    for item, value in truth.items():
        stale = value + 100
        claims.append(Claim("indep-1", item,
                            value if rng.random() < 0.95 else value + 1))
        claims.append(Claim("indep-2", item,
                            value if rng.random() < 0.9 else value + 2))
        for index in range(n_copiers):
            claims.append(
                Claim(f"copier-{index}", item,
                      value if rng.random() < 0.3 else stale)
            )
    return claims, truth


class TestDetectCopying:
    def test_anchored_detection_flags_the_bloc(self):
        claims, truth = copier_world()
        trusted = dict(list(truth.items())[:10])
        report = detect_copying(claims, trusted)
        copier_weights = [
            w for s, w in report.independence_weight.items() if "copier" in s
        ]
        indep_weights = [
            w for s, w in report.independence_weight.items() if "indep" in s
        ]
        assert max(copier_weights) < min(indep_weights)
        suspects = [
            pair for pair, score in report.dependence.items() if score > 0.3
        ]
        assert any("copier" in a and "copier" in b for a, b in suspects)
        assert not any("indep" in a and "indep" in b for a, b in suspects)

    def test_unanchored_detection_is_mild(self):
        claims, __ = copier_world()
        report = detect_copying(claims)
        # without an anchor, no weight should be crushed to near zero
        assert min(report.independence_weight.values()) > 0.1

    def test_disjoint_sources_have_zero_dependence(self):
        claims = [Claim("a", "x", 1), Claim("b", "y", 2)]
        report = detect_copying(claims)
        assert report.dependence[("a", "b")] == 0.0

    def test_trusted_without_overlap_falls_back(self):
        claims = [Claim("a", "x", 1), Claim("b", "x", 1)]
        report = detect_copying(claims, trusted={"zzz": 9})
        assert 0.0 < report.independence_weight["a"] <= 1.0


class TestCopyAwareEM:
    def test_empty_claims_rejected(self):
        with pytest.raises(FusionError):
            AccuEM().run([], {})

    def test_recovers_where_plain_em_collapses(self):
        claims, truth = copier_world(n_copiers=4)
        plain = AccuEM().run(claims).accuracy_against(truth)
        trusted = dict(list(truth.items())[:10])
        weights = detect_copying(claims, trusted).independence_weight
        aware = AccuEM().run(claims, weights).accuracy_against(truth)
        assert aware > 0.8
        assert aware > plain + 0.3

    def test_degenerates_gracefully_without_copiers(self):
        rng = random.Random(9)
        truth = {f"i{i}": i for i in range(40)}
        claims = []
        for item, value in truth.items():
            for source, accuracy in (("a", 0.9), ("b", 0.8), ("c", 0.6)):
                claims.append(
                    Claim(source, item,
                          value if rng.random() < accuracy else value + rng.randint(1, 5))
                )
        weights = detect_copying(claims).independence_weight
        result = AccuEM().run(claims, weights)
        assert result.accuracy_against(truth) > 0.85

    def test_result_structure(self):
        claims, __ = copier_world(n_items=10, n_copiers=2)
        weights = detect_copying(claims).independence_weight
        result = AccuEM().run(claims, weights)
        assert set(result.values) == {f"i{i}" for i in range(10)}
        assert all(0.0 <= c <= 1.0 for c in result.confidences.values())
        assert all(0.0 < a <= 0.95 for a in result.source_trust.values())
