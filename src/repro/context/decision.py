"""Multi-criteria decision making over wrangling alternatives.

Section 2.1 argues that "adaptivity and multi-criteria optimisation are of
paramount importance for cost-effective wrangling processes".  This module
scores alternatives (candidate sources, mappings, pipeline configurations)
described by per-criterion scores against the weights of a user context,
by weighted sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import ContextError
from repro.model.annotations import Dimension

__all__ = ["Alternative", "weighted_score", "rank"]


@dataclass(frozen=True)
class Alternative:
    """One candidate decision with its per-criterion scores.

    All scores are benefit-oriented in ``[0, 1]`` — cost must be inverted
    by the caller before it gets here (the quality layer already stores
    "cheapness" rather than cost).
    """

    key: str
    scores: Mapping[Dimension, float]
    payload: object = None

    def score_for(self, dimension: Dimension, default: float = 0.5) -> float:
        """The alternative's score on one criterion."""
        return self.scores.get(dimension, default)


def weighted_score(
    alternative: Alternative, weights: Mapping[Dimension, float]
) -> float:
    """Weighted-sum utility of one alternative under the given weights."""
    if not weights:
        raise ContextError("criteria weights must be non-empty")
    total_weight = sum(weights.values())
    if total_weight <= 0:
        raise ContextError("criteria weights must sum to a positive value")
    return (
        sum(
            weight * alternative.score_for(dimension)
            for dimension, weight in weights.items()
        )
        / total_weight
    )


def rank(
    alternatives: Sequence[Alternative], weights: Mapping[Dimension, float]
) -> list[tuple[Alternative, float]]:
    """Alternatives sorted by weighted score, best first (stable on ties)."""
    scored = [(alt, weighted_score(alt, weights)) for alt in alternatives]
    return sorted(scored, key=lambda pair: -pair[1])

