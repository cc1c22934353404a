"""Conflict-resolution strategies for fusing one attribute of one entity.

The paper's Veracity: sources disagree, and "a guide to the fusion of
property values from records that have been obtained from different
sources" must pick (or construct) the value to publish, with an explicit
confidence.  Strategies receive the claimed values with their cell
confidences and per-source reliabilities, so context (e.g. reliabilities
learned from feedback) flows into every decision.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Sequence

from repro.errors import FusionError
from repro.model.values import Value

__all__ = [
    "AttributeClaims",
    "FusedChoice",
    "STRATEGIES",
    "resolve",
    "majority_vote",
    "weighted_vote",
    "most_recent",
    "numeric_median",
]


class AttributeClaims(NamedTuple):
    """The claims on one attribute of one entity, column by column.

    Claim ``i`` is the non-missing value ``values[i]`` from source
    ``sources[i]``, whose reliability is ``reliabilities[i]``; its
    ``recencies[i]`` is 1.0 for the freshest observation in the cluster.
    Columns, not one object per claim: fusion re-votes every claim of
    every entity whenever a verdict moves a source's reliability.
    """

    values: Sequence[Value]
    sources: Sequence[str]
    reliabilities: Sequence[float]
    recencies: Sequence[float]

    def select(self, keep: Sequence[int]) -> "AttributeClaims":
        """The claims at positions ``keep``, in that order."""
        return AttributeClaims(*([column[i] for i in keep] for column in self))


class FusedChoice(NamedTuple):
    """The chosen value and the support behind it."""

    value: Value
    confidence: float
    supporters: tuple[str, ...]


def _groups(values: Sequence[Value]) -> dict[object, list[int]]:
    """Claim positions by raw value, values in first-claimed order."""
    groups: dict[object, list[int]] = {}
    for i, value in enumerate(values):
        members = groups.get(value.raw)
        if members is None:
            groups[value.raw] = [i]
        else:
            members.append(i)
    return groups


def majority_vote(claims: AttributeClaims) -> FusedChoice:
    """The most frequently claimed value; ties break on total reliability."""
    groups = _groups(claims.values)
    reliabilities = claims.reliabilities
    best_raw = max(
        groups,
        key=lambda raw: (
            len(groups[raw]),
            sum(reliabilities[i] for i in groups[raw]),
        ),
    )
    members = groups[best_raw]
    return FusedChoice(
        claims.values[members[0]],
        len(members) / len(claims.values),
        tuple(sorted([claims.sources[i] for i in members])),
    )


def weighted_vote(claims: AttributeClaims) -> FusedChoice:
    """Votes weighted by source reliability x cell confidence.

    One pass over the claims: a value's weight accumulates in claim order
    from ``0``, as ``sum`` would; the total adds the weights in
    first-claimed order, and a tie goes to the value claimed first.
    """
    values, reliabilities = claims.values, claims.reliabilities
    weights: dict[object, float] = {}
    members: dict[object, list[int]] = {}
    for i, value in enumerate(values):
        raw = value.raw
        weights[raw] = weights.get(raw, 0) + reliabilities[i] * value.confidence
        group = members.get(raw)
        if group is None:
            members[raw] = [i]
        else:
            group.append(i)
    total = sum(weights.values())
    best_raw = max(weights, key=weights.__getitem__)
    chosen = members[best_raw]
    return FusedChoice(
        values[chosen[0]],
        weights[best_raw] / total if total > 0 else 0.0,
        tuple(sorted([claims.sources[i] for i in chosen])),
    )


def most_recent(claims: AttributeClaims) -> FusedChoice:
    """The freshest claim wins — the right call for transient data like
    prices (Section 3.1's critique of KBC's redundancy assumption)."""
    values, recencies, reliabilities = (
        claims.values, claims.recencies, claims.reliabilities
    )
    best = max(
        range(len(values)), key=lambda i: (recencies[i], reliabilities[i])
    )
    raw = values[best].raw
    return FusedChoice(
        values[best],
        0.5 + 0.5 * recencies[best] * reliabilities[best],
        tuple(sorted([
            source
            for value, source in zip(values, claims.sources)
            if value.raw == raw
        ])),
    )


def numeric_median(claims: AttributeClaims) -> FusedChoice:
    """The reliability-weighted median of numeric claims — robust to the
    magnitude errors cheap aggregators make."""
    values, reliabilities = claims.values, claims.reliabilities
    numeric: list[tuple[float, int]] = []
    for i, value in enumerate(values):
        try:
            numeric.append((float(value.raw), i))  # type: ignore[arg-type]
        except (TypeError, ValueError):
            continue
    if not numeric:
        return majority_vote(claims)
    numeric.sort(key=lambda pair: pair[0])
    total_weight = sum(reliabilities[i] for __, i in numeric)
    cumulative = 0.0
    chosen = numeric[-1][1]
    for __, i in numeric:
        cumulative += reliabilities[i]
        if cumulative >= total_weight / 2:
            chosen = i
            break
    raw = values[chosen].raw
    agreeing = [
        source
        for value, source in zip(values, claims.sources)
        if value.raw == raw
    ]
    return FusedChoice(
        values[chosen],
        len(agreeing) / len(values),
        tuple(sorted(agreeing)),
    )


STRATEGIES: Mapping[str, Callable[[AttributeClaims], FusedChoice]] = {
    "majority": majority_vote,
    "weighted": weighted_vote,
    "recent": most_recent,
    "median": numeric_median,
}


def resolve(strategy: str, claims: AttributeClaims) -> FusedChoice:
    """Apply a named strategy to a non-empty set of claims."""
    if strategy not in STRATEGIES:
        raise FusionError(
            f"unknown fusion strategy {strategy!r}; known: {sorted(STRATEGIES)}"
        )
    if not claims.values:
        raise FusionError("cannot fuse an empty claim set")
    return STRATEGIES[strategy](claims)
