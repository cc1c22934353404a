"""Match rules: a threshold, refitted from feedback.

Example 5 asks for crowdsourcing "to identify duplicates, and thereby to
refine the automatically generated rules that determine when two records
represent the same real-world object" (Corleone-style, [20]).  The
:class:`ThresholdRule` is the bootstrap; :func:`refit_threshold` moves
its threshold from labelled pairs whenever new duplicate/non-duplicate
feedback arrives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ResolutionError

__all__ = [
    "MatchDecision",
    "ThresholdRule",
    "fit_threshold",
    "refit_threshold",
]


@dataclass(frozen=True)
class MatchDecision:
    """A rule's verdict on one candidate pair."""

    is_match: bool
    confidence: float


@dataclass(frozen=True)
class ThresholdRule:
    """Match when the pooled similarity is at or above ``threshold``."""

    threshold: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ResolutionError("threshold must be in [0,1]")

    def decide(self, similarity: float, vector: Sequence[float | None]) -> MatchDecision:
        """Verdict from the pooled similarity (the vector is unused)."""
        is_match = similarity >= self.threshold
        # Confidence grows with distance from the decision boundary.
        margin = abs(similarity - self.threshold)
        return MatchDecision(is_match, min(1.0, 0.5 + margin))


def fit_threshold(
    similarities: Sequence[float], labels: Sequence[bool]
) -> ThresholdRule:
    """The threshold maximising F1 on labelled pairs.

    Candidate thresholds are the observed similarities (plus 0/1 fences);
    ties break toward the higher threshold (precision-friendly).
    """
    if len(similarities) != len(labels):
        raise ResolutionError("similarities and labels must align")
    if not similarities:
        return ThresholdRule()
    candidates = sorted(set(similarities) | {0.0, 1.0}, reverse=True)
    best_threshold, best_f1 = 0.8, -1.0
    positives = sum(1 for label in labels if label)
    for threshold in candidates:
        tp = sum(
            1 for s, label in zip(similarities, labels) if s >= threshold and label
        )
        fp = sum(
            1 for s, label in zip(similarities, labels) if s >= threshold and not label
        )
        if tp + fp == 0 or positives == 0:
            continue
        precision = tp / (tp + fp)
        recall = tp / positives
        if precision + recall == 0:
            continue
        f1 = 2 * precision * recall / (precision + recall)
        if f1 > best_f1:
            best_f1, best_threshold = f1, threshold
    return ThresholdRule(best_threshold)


def refit_threshold(
    prior: float, similarities: Sequence[float], labels: Sequence[bool]
) -> ThresholdRule:
    """The match rule after duplicate feedback: ``prior`` refitted on the
    labelled pairs, or ``prior`` itself while fewer than four are known.

    Threshold fitting is monotone by construction, so judgments collected
    on *borderline* pairs (where active acquisition sends the crowd)
    generalise safely to the easy mass of pairs.  A per-field logistic
    rule is strictly more expressive but extrapolates disastrously from
    borderline-only training data — measured, not speculated (it drove
    pair precision to 0.02 on the jobs world).
    """
    if len(labels) < 4:
        return ThresholdRule(prior)
    if len(set(labels)) == 2:
        return fit_threshold(similarities, labels)
    if not any(labels):
        # Everything the crowd saw near the threshold was junk: the cut
        # belongs above the highest rejected pair.
        floor = min(0.99, max(similarities) + 0.01)
        return ThresholdRule(max(prior, floor))
    # Everything seen was a true duplicate: merging may relax down to the
    # lowest confirmed pair.
    ceiling = max(0.5, min(similarities) - 0.01)
    return ThresholdRule(min(prior, ceiling))

