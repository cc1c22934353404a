"""Conflict-resolution strategies for fusing one attribute of one entity.

The paper's Veracity: sources disagree, and "a guide to the fusion of
property values from records that have been obtained from different
sources" must pick (or construct) the value to publish, with an explicit
confidence.  Strategies receive the candidate values with their cell
confidences and per-source reliabilities, so context (e.g. reliabilities
learned from feedback) flows into every decision.
"""

from __future__ import annotations

import datetime as _dt
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.errors import FusionError
from repro.model.values import Value

__all__ = [
    "Candidate",
    "FusedChoice",
    "STRATEGIES",
    "resolve",
    "majority_vote",
    "weighted_vote",
    "most_recent",
    "highest_confidence",
    "numeric_median",
]


@dataclass(frozen=True)
class Candidate:
    """One source's claim for an attribute value."""

    value: Value
    source: str
    reliability: float = 0.5
    recency: float = 0.5  # 1.0 = freshest observation in the cluster


@dataclass(frozen=True)
class FusedChoice:
    """The chosen value and the support behind it."""

    value: Value
    confidence: float
    supporters: tuple[str, ...]


def _group_by_raw(candidates: Sequence[Candidate]) -> dict[object, list[Candidate]]:
    groups: dict[object, list[Candidate]] = defaultdict(list)
    for candidate in candidates:
        groups[candidate.value.raw].append(candidate)
    return dict(groups)


def majority_vote(candidates: Sequence[Candidate]) -> FusedChoice:
    """The most frequently claimed value; ties break on total reliability."""
    groups = _group_by_raw(candidates)
    best_raw = max(
        groups,
        key=lambda raw: (
            len(groups[raw]),
            sum(c.reliability for c in groups[raw]),
        ),
    )
    supporters = groups[best_raw]
    return FusedChoice(
        supporters[0].value,
        len(supporters) / len(candidates),
        tuple(sorted(c.source for c in supporters)),
    )


def weighted_vote(candidates: Sequence[Candidate]) -> FusedChoice:
    """Votes weighted by source reliability x cell confidence."""
    groups = _group_by_raw(candidates)
    weights = {
        raw: sum(c.reliability * c.value.confidence for c in group)
        for raw, group in groups.items()
    }
    total = sum(weights.values())
    best_raw = max(weights, key=lambda raw: weights[raw])
    supporters = groups[best_raw]
    confidence = weights[best_raw] / total if total > 0 else 0.0
    return FusedChoice(
        supporters[0].value,
        confidence,
        tuple(sorted(c.source for c in supporters)),
    )


def most_recent(candidates: Sequence[Candidate]) -> FusedChoice:
    """The freshest claim wins — the right call for transient data like
    prices (Section 3.1's critique of KBC's redundancy assumption)."""
    best = max(candidates, key=lambda c: (c.recency, c.reliability))
    agreeing = [c for c in candidates if c.value.raw == best.value.raw]
    return FusedChoice(
        best.value,
        0.5 + 0.5 * best.recency * best.reliability,
        tuple(sorted(c.source for c in agreeing)),
    )


def highest_confidence(candidates: Sequence[Candidate]) -> FusedChoice:
    """The single claim with the best reliability x confidence product."""
    best = max(
        candidates, key=lambda c: c.reliability * c.value.confidence
    )
    agreeing = [c for c in candidates if c.value.raw == best.value.raw]
    return FusedChoice(
        best.value,
        best.reliability * best.value.confidence,
        tuple(sorted(c.source for c in agreeing)),
    )


def numeric_median(candidates: Sequence[Candidate]) -> FusedChoice:
    """The reliability-weighted median of numeric claims — robust to the
    magnitude errors cheap aggregators make."""
    numeric: list[tuple[float, Candidate]] = []
    for candidate in candidates:
        try:
            numeric.append((float(candidate.value.raw), candidate))  # type: ignore[arg-type]
        except (TypeError, ValueError):
            continue
    if not numeric:
        return majority_vote(candidates)
    numeric.sort(key=lambda pair: pair[0])
    total_weight = sum(c.reliability for __, c in numeric)
    cumulative = 0.0
    chosen = numeric[-1][1]
    for number, candidate in numeric:
        cumulative += candidate.reliability
        if cumulative >= total_weight / 2:
            chosen = candidate
            break
    agreeing = [c for c in candidates if c.value.raw == chosen.value.raw]
    return FusedChoice(
        chosen.value,
        len(agreeing) / len(candidates),
        tuple(sorted(c.source for c in agreeing)),
    )


STRATEGIES: Mapping[str, Callable[[Sequence[Candidate]], FusedChoice]] = {
    "majority": majority_vote,
    "weighted": weighted_vote,
    "recent": most_recent,
    "confident": highest_confidence,
    "median": numeric_median,
}


def resolve(strategy: str, candidates: Sequence[Candidate]) -> FusedChoice:
    """Apply a named strategy to non-empty candidates."""
    if strategy not in STRATEGIES:
        raise FusionError(
            f"unknown fusion strategy {strategy!r}; known: {sorted(STRATEGIES)}"
        )
    cleaned = [c for c in candidates if not c.value.is_missing]
    if not cleaned:
        raise FusionError("cannot fuse an empty candidate set")
    return STRATEGIES[strategy](cleaned)
