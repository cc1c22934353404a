"""Parity pins for the one source-accuracy EM.

Copy-aware truth discovery used to be a second EM loop,
``copy_aware_em``, beside :class:`AccuEM`.  Its body is kept below
verbatim as the oracle ``old_copy_aware_em``; ``AccuEM().run(claims,
weights)`` must reproduce it exactly (``==`` on every float, not
approximately) on experiment E9's four claim sets and on the copier
world of ``test_copying.py``, with no weights, unanchored copy weights
and anchored copy weights.

The worker-reliability EM's tuning became module constants; its floats
on one fixed judgment set are pinned here as the old parameters
produced them.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from typing import Mapping, Sequence

import pytest

from repro.errors import FusionError
from repro.feedback.reliability import Judgment, estimate_reliability
from repro.fusion.truth import AccuEM, Claim, TruthResult, detect_copying


def old_copy_aware_em(
    claims: Sequence[Claim],
    max_iterations: int = 30,
    weights: Mapping[str, float] | None = None,
) -> TruthResult:
    """AccuEM with copier votes discounted by their independence weight.

    The weight scales a source's log-likelihood contribution in the
    E-step: a bloc of k mutual copiers contributes like ~1 source instead
    of k, so the coherent-stale-feed trap of experiment E9 is defused.
    """
    if not claims:
        raise FusionError("no claims to resolve")
    if weights is None:
        weights = detect_copying(claims).independence_weight

    by_item: dict[str, dict[object, set[str]]] = defaultdict(
        lambda: defaultdict(set)
    )
    by_source: dict[str, list[Claim]] = defaultdict(list)
    for claim in claims:
        by_item[claim.data_item][claim.value].add(claim.source)
        by_source[claim.source].append(claim)

    accuracy = {source: 0.8 for source in by_source}
    item_probs: dict[str, dict[object, float]] = {}
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        for item, value_sources in by_item.items():
            n_values = len(value_sources)
            scores: dict[object, float] = {}
            for value in value_sources:
                log_score = 0.0
                for other_value, sources in value_sources.items():
                    for source in sources:
                        weight = weights.get(source, 1.0)
                        acc = min(max(accuracy[source], 1e-6), 1 - 1e-6)
                        if other_value == value:
                            log_score += weight * math.log(acc)
                        else:
                            spread = (1.0 - acc) / max(1, n_values - 1)
                            log_score += weight * math.log(max(spread, 1e-9))
                scores[value] = log_score
            peak = max(scores.values())
            exp_scores = {
                value: math.exp(score - peak)
                for value, score in scores.items()
            }
            total = sum(exp_scores.values())
            item_probs[item] = {
                value: score / total for value, score in exp_scores.items()
            }
        new_accuracy = {}
        for source, source_claims in by_source.items():
            probs = [
                item_probs[claim.data_item][claim.value]
                for claim in source_claims
            ]
            smoothed = (sum(probs) + 1.0) / (len(probs) + 2.0)
            new_accuracy[source] = min(smoothed, 0.95)
        delta = max(
            abs(new_accuracy[source] - accuracy[source])
            for source in accuracy
        )
        accuracy = new_accuracy
        if delta < 1e-5:
            break

    values: dict[str, object] = {}
    confidences: dict[str, float] = {}
    for item, probs in item_probs.items():
        best = max(probs, key=lambda v: probs[v])
        values[item] = best
        confidences[item] = probs[best]
    return TruthResult(values, confidences, accuracy, iterations)


def e9_claim_set(n_items: int, bad_sources: int, seed: int):
    """Experiment E9's generator: 2 good sources + a stale-feed bloc."""
    rng = random.Random(seed)
    truth = {f"item-{i}": round(rng.uniform(10, 900), 2) for i in range(n_items)}
    claims = []
    for item, value in truth.items():
        stale = round(value * 1.12, 2)
        claims.append(Claim("good-1", item,
                            value if rng.random() < 0.95 else round(value * 1.05, 2)))
        claims.append(Claim("good-2", item,
                            value if rng.random() < 0.9 else round(value * 0.94, 2)))
        for index in range(bad_sources):
            claims.append(
                Claim(f"bad-{index}", item,
                      value if rng.random() < 0.35 else stale)
            )
    return claims, truth


def copier_world(n_items=60, n_copiers=4, seed=3):
    """``test_copying.py``'s world: two independents vs a copier bloc."""
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


# (claims, truth, how many leading truth items anchor detection): E9
# anchors on 12 of 80 items, test_copying.py on 10 of 60.
WORLDS = {
    **{
        f"e9-bad{bad}": (*e9_claim_set(80, bad, seed=900 + bad), 12)
        for bad in (2, 3, 4, 5)
    },
    **{
        f"copier-seed{seed}": (*copier_world(seed=seed), 10)
        for seed in (3, 4, 5)
    },
}


def assert_identical(new: TruthResult, old: TruthResult) -> None:
    assert new.values == old.values
    assert new.confidences == old.confidences
    assert new.source_trust == old.source_trust
    assert new.iterations == old.iterations


@pytest.mark.parametrize("world", sorted(WORLDS))
class TestWeightedAccuEMParity:
    def test_no_weights(self, world):
        claims, __, __ = WORLDS[world]
        assert_identical(
            AccuEM().run(claims), old_copy_aware_em(claims, weights={})
        )

    def test_unanchored_weights(self, world):
        claims, __, __ = WORLDS[world]
        weights = detect_copying(claims).independence_weight
        assert_identical(
            AccuEM().run(claims, weights), old_copy_aware_em(claims)
        )

    def test_anchored_weights(self, world):
        claims, truth, anchors = WORLDS[world]
        trusted = dict(list(truth.items())[:anchors])
        weights = detect_copying(claims, trusted).independence_weight
        assert_identical(
            AccuEM().run(claims, weights),
            old_copy_aware_em(claims, weights=weights),
        )


def test_estimate_reliability_floats_pinned():
    rng = random.Random(11)
    judgments = []
    for index in range(12):
        truth = rng.random() < 0.5
        for worker, accuracy in (("alice", 0.9), ("bob", 0.75), ("carol", 0.55)):
            if rng.random() < 0.8:
                answer = truth if rng.random() < accuracy else not truth
                judgments.append(Judgment(worker, f"q{index}", answer))
    assert len(judgments) == 31
    estimate = estimate_reliability(judgments)
    assert estimate.worker_accuracy == {
        "alice": 0.8390174258362381,
        "bob": 0.8355322639882419,
        "carol": 0.7188512738380404,
    }
    assert estimate.item_probability == {
        "q0": 0.7136524661820173,
        "q1": 0.08806293768438213,
        "q2": 0.930196131874901,
        "q3": 0.9854435920187375,
        "q4": 0.911937062315618,
        "q5": 0.16098257416376194,
        "q6": 0.014556407981262448,
        "q7": 0.6708792963942823,
        "q8": 0.7239921987755067,
        "q9": 0.930196131874901,
        "q10": 0.9854435920187375,
        "q11": 0.9854435920187375,
    }
    assert estimate.iterations == 20
