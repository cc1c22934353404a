"""Worker-reliability estimation from overlapping binary judgments.

Feedback "may be unreliable or out of line with the user's requirements"
(Section 4.2), and Demartini et al. [13] showed how to relate uncertain
crowd answers to other evidence probabilistically.  This is a Dawid–Skene
style EM restricted to binary questions: item truths and worker accuracies
are estimated jointly from whoever answered what, with majority vote as
initialisation.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from repro.errors import FeedbackError
from repro.model.uncertainty import clamp

__all__ = ["Judgment", "ReliabilityEstimate", "estimate_reliability"]

_MAX_ITERATIONS = 50
_TOLERANCE = 1e-5
_PRIOR_STRENGTH = 2.0
_PRIOR_MEAN = 0.8


@dataclass(frozen=True)
class Judgment:
    """Worker ``worker`` answered ``answer`` on question ``item``."""

    worker: str
    item: str
    answer: bool


@dataclass
class ReliabilityEstimate:
    """Estimated worker accuracies and per-item truth probabilities."""

    worker_accuracy: dict[str, float]
    item_probability: dict[str, float]
    iterations: int


def estimate_reliability(judgments: Sequence[Judgment]) -> ReliabilityEstimate:
    """Jointly estimate worker accuracy and item truth by EM.

    E-step: item truth probability from current worker accuracies (log-odds
    sum of votes).  M-step: worker accuracy is the smoothed expected
    agreement with the estimated truths.  The smoothing prior mean is 0.8,
    not 0.5 — a worker we know nothing about is presumed helpful, not a
    coin flip, otherwise a lone judgment could never move anything.
    Accuracies are clamped to ``[0.05, 0.95]`` — no worker is treated as an
    oracle or an anti-oracle.
    """
    if not judgments:
        raise FeedbackError("cannot estimate reliability from no judgments")
    by_item: dict[str, list[Judgment]] = defaultdict(list)
    by_worker: dict[str, list[Judgment]] = defaultdict(list)
    for judgment in judgments:
        by_item[judgment.item].append(judgment)
        by_worker[judgment.worker].append(judgment)

    # Initialise item probabilities by majority vote.
    probability = {
        item: sum(1 for j in votes if j.answer) / len(votes)
        for item, votes in by_item.items()
    }
    accuracy = {worker: 0.7 for worker in by_worker}

    iterations = 0
    for iterations in range(1, _MAX_ITERATIONS + 1):
        # M-step: worker accuracy = expected agreement with current truths.
        new_accuracy = {}
        for worker, votes in by_worker.items():
            agreement = sum(
                probability[j.item] if j.answer else 1.0 - probability[j.item]
                for j in votes
            )
            smoothed = (agreement + _PRIOR_MEAN * _PRIOR_STRENGTH) / (
                len(votes) + _PRIOR_STRENGTH
            )
            new_accuracy[worker] = clamp(smoothed, 0.05, 0.95)

        # E-step: item probabilities from worker accuracies.
        new_probability = {}
        for item, votes in by_item.items():
            log_odds = 0.0
            for judgment in votes:
                acc = new_accuracy[judgment.worker]
                weight = math.log(acc / (1.0 - acc))
                log_odds += weight if judgment.answer else -weight
            new_probability[item] = 1.0 / (1.0 + math.exp(-log_odds))

        delta = max(
            max(abs(new_accuracy[w] - accuracy[w]) for w in accuracy),
            max(abs(new_probability[i] - probability[i]) for i in probability),
        )
        accuracy, probability = new_accuracy, new_probability
        if delta < _TOLERANCE:
            break

    return ReliabilityEstimate(accuracy, probability, iterations)
