"""Declarative user contexts (paper Sections 2.1 and 4.2).

"The user context must provide a declarative specification of the user's
requirements and priorities, both functional (data) and non-functional
(such as quality and cost trade-offs), so that the components ... can be
automatically and flexibly composed."

A :class:`UserContext` therefore carries: the target schema (functional
requirement), criteria weights (given directly), hard floors per
quality dimension, a cost budget, and an optional scope restricting
relevance (e.g. "only the products in our catalog",
Example 4).  Components never read user preferences from anywhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

from repro.errors import ContextError
from repro.model.annotations import Dimension
from repro.model.records import Record
from repro.model.schema import Schema

__all__ = ["UserContext"]


def _normalised(weights: Mapping[Dimension, float]) -> dict[Dimension, float]:
    for dim, w in weights.items():
        if not math.isfinite(w):
            raise ContextError(
                f"weight for {dim.value} must be finite, got {w}"
            )
    total = sum(weights.values())
    if total <= 0:
        raise ContextError("criteria weights must sum to a positive value")
    return {dim: w / total for dim, w in weights.items()}


@dataclass(frozen=True)
class UserContext:
    """The declarative requirements of one application user.

    ``weights`` sum to 1 and drive every multi-criteria decision;
    ``floors`` are hard requirements (a candidate below a floor is
    discarded outright); ``budget`` caps the total access + feedback cost
    the pipeline may spend; ``scope`` (attribute, predicate) restricts
    which records are relevant at all.
    """

    name: str
    target_schema: Schema
    weights: Mapping[Dimension, float] = field(
        default_factory=lambda: _normalised(
            {
                Dimension.ACCURACY: 1.0,
                Dimension.COMPLETENESS: 1.0,
                Dimension.TIMELINESS: 1.0,
                Dimension.COST: 1.0,
            }
        )
    )
    floors: Mapping[Dimension, float] = field(default_factory=dict)
    budget: float = float("inf")
    scope_attribute: str | None = None
    scope_predicate: Callable[[object], bool] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _normalised(dict(self.weights)))
        for dim, floor in self.floors.items():
            if not 0.0 <= floor <= 1.0:
                raise ContextError(
                    f"floor for {dim.value} must be in [0,1], got {floor}"
                )
        # NaN fails every comparison, so a NaN budget would never bind.
        if not self.budget >= 0:
            raise ContextError(
                f"budget must be non-negative, got {self.budget}"
            )

    # -- construction helpers -------------------------------------------

    @classmethod
    def precision_first(
        cls, name: str, target_schema: Schema, **kwargs: object
    ) -> "UserContext":
        """Example 2's "routine price comparison" profile: accuracy and
        timeliness over completeness."""
        weights = {
            Dimension.ACCURACY: 0.4,
            Dimension.TIMELINESS: 0.3,
            Dimension.CONSISTENCY: 0.1,
            Dimension.COMPLETENESS: 0.1,
            Dimension.COST: 0.1,
        }
        floors = {Dimension.ACCURACY: 0.6}
        return cls(
            name, target_schema, weights=weights, floors=floors, **kwargs
        )  # type: ignore[arg-type]

    @classmethod
    def completeness_first(
        cls, name: str, target_schema: Schema, **kwargs: object
    ) -> "UserContext":
        """Example 2's "issue investigation" profile: the most complete
        picture, accepting more incorrect or stale data."""
        weights = {
            Dimension.COMPLETENESS: 0.45,
            Dimension.RELEVANCE: 0.15,
            Dimension.ACCURACY: 0.15,
            Dimension.TIMELINESS: 0.1,
            Dimension.COST: 0.15,
        }
        return cls(name, target_schema, weights=weights, **kwargs)  # type: ignore[arg-type]

    # -- behaviour ---------------------------------------------------------

    def weight(self, dimension: Dimension) -> float:
        """The (normalised) weight of one criterion; 0 when not mentioned."""
        return self.weights.get(dimension, 0.0)

    def meets_floors(self, scores: Mapping[Dimension, float]) -> bool:
        """Whether candidate ``scores`` satisfy every hard floor."""
        return all(
            scores.get(dim, 0.0) >= floor for dim, floor in self.floors.items()
        )

    def in_scope(self, record: Record) -> bool:
        """Whether a record is relevant to this user at all."""
        if self.scope_attribute is None or self.scope_predicate is None:
            return True
        return bool(self.scope_predicate(record.raw(self.scope_attribute)))

    def with_budget(self, budget: float) -> "UserContext":
        """A copy of this context under a different budget."""
        return replace(self, budget=budget)

    def describe(self) -> str:
        """A one-paragraph, human-readable statement of the requirements."""
        parts = [f"user context {self.name!r}:"]
        ordered = sorted(self.weights.items(), key=lambda kv: -kv[1])
        parts.append(
            "priorities "
            + ", ".join(f"{dim.value}={w:.2f}" for dim, w in ordered)
        )
        if self.floors:
            parts.append(
                "floors "
                + ", ".join(
                    f"{dim.value}>={floor:.2f}"
                    for dim, floor in sorted(
                        self.floors.items(), key=lambda kv: kv[0].value
                    )
                )
            )
        if self.budget != float("inf"):
            parts.append(f"budget {self.budget:.1f}")
        if self.scope_attribute:
            parts.append(f"scoped by {self.scope_attribute!r}")
        return "; ".join(parts)
