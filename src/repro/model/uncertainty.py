"""Uncertainty representation and evidence combination.

The paper insists that "uncertainty is represented explicitly and reasoned
with systematically" (Section 4.2): sources are unreliable, extraction rules
are tentative, ontologies are approximate, and feedback itself may be wrong.
This module provides the shared algebra every component uses:

* confidences are probabilities in ``[0, 1]``;
* weighted, possibly conflicting evidence combines by *log-odds pooling*;
* :class:`BetaReliability` tracks the reliability of a source, wrapper, or
  crowd worker as a Beta posterior over observed successes/failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "clamp",
    "log_odds_pool",
    "Evidence",
    "pool_evidence",
    "BetaReliability",
]

# Confidences are clamped away from hard 0/1 so log-odds stay finite and a
# single overconfident component can never veto all other evidence.
_EPSILON = 1e-6


def clamp(p: float, low: float = 0.0, high: float = 1.0) -> float:
    """Clamp ``p`` into ``[low, high]``."""
    return max(low, min(high, p))


def _logit(p: float) -> float:
    p = clamp(p, _EPSILON, 1.0 - _EPSILON)
    return math.log(p / (1.0 - p))


def _sigmoid(x: float) -> float:
    if x >= 0:
        z = math.exp(-x)
        return 1.0 / (1.0 + z)
    z = math.exp(x)
    return z / (1.0 + z)


def log_odds_pool(
    probabilities: Sequence[float],
    weights: Sequence[float] | None = None,
    prior: float = 0.5,
) -> float:
    """Pool conflicting evidence as a weighted sum of log-odds.

    Probabilities above ``prior`` push belief up, below push it down; the
    weights let the caller discount less reliable evidence (e.g. crowd
    feedback vs expert feedback).  With no evidence the prior is returned.
    """
    if weights is None:
        weights = [1.0] * len(probabilities)
    if len(weights) != len(probabilities):
        raise ValueError("weights and probabilities must have equal length")
    total = _logit(prior)
    for p, w in zip(probabilities, weights):
        total += w * (_logit(p) - _logit(prior))
    return _sigmoid(total)


@dataclass(frozen=True)
class Evidence:
    """One piece of evidence about a proposition.

    ``confidence`` is the probability the proposition holds given only this
    evidence; ``weight`` scales its influence when pooled; ``kind`` names
    the evidence channel (``"name-similarity"``, ``"ontology"``,
    ``"feedback"``, ...) so ablation experiments can switch channels off.
    """

    kind: str
    confidence: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(
                f"evidence confidence must be in [0,1], got {self.confidence}"
            )
        if self.weight < 0.0:
            raise ValueError(f"evidence weight must be >= 0, got {self.weight}")


def pool_evidence(evidence: Sequence[Evidence], prior: float = 0.5) -> float:
    """Combine a bag of :class:`Evidence` into a single confidence by
    log-odds pooling (which handles conflicting evidence)."""
    if not evidence:
        return prior
    return log_odds_pool(
        [e.confidence for e in evidence],
        [e.weight for e in evidence],
        prior=prior,
    )


@dataclass
class BetaReliability:
    """Beta-posterior reliability of a source, wrapper, or worker.

    Starts from a weakly informative Beta(alpha, beta) prior and is updated
    with observed successes and failures (e.g. feedback saying an extracted
    value was right or wrong).  ``mean`` is the point estimate used by the
    rest of the system; ``credible_interval`` quantifies how much evidence
    backs it, which the pay-as-you-go planner uses to decide where the next
    unit of feedback is most valuable.
    """

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("Beta parameters must be positive")

    @property
    def mean(self) -> float:
        """Posterior mean reliability."""
        return self.alpha / (self.alpha + self.beta)

    @property
    def strength(self) -> float:
        """Total pseudo-observations backing the estimate."""
        return self.alpha + self.beta

    @property
    def variance(self) -> float:
        """Posterior variance of the reliability."""
        total = self.alpha + self.beta
        return (self.alpha * self.beta) / (total * total * (total + 1.0))

    def update(self, success: bool, weight: float = 1.0) -> None:
        """Fold in one observation (optionally fractionally weighted)."""
        if weight < 0:
            raise ValueError("observation weight must be >= 0")
        if success:
            self.alpha += weight
        else:
            self.beta += weight

    def credible_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation credible interval for the reliability."""
        spread = z * math.sqrt(self.variance)
        return (clamp(self.mean - spread), clamp(self.mean + spread))

    def copy(self) -> "BetaReliability":
        """An independent copy of this posterior."""
        return BetaReliability(self.alpha, self.beta)
