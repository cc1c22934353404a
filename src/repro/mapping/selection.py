"""Context-aware mapping selection (paper Sections 2.1 and 4.1).

"The selection of which mappings to use must take into account information
from the user context, such as the number of results required, the budget
for accessing sources, and quality requirements."  Candidate mappings are
scored on the user's quality dimensions — accuracy, completeness,
timeliness, cost, relevance — from what the working data currently
believes (annotations, source reliability), filtered by the context's hard
floors, and picked under the budget by weighted rank.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.context.decision import Alternative, rank
from repro.context.user_context import UserContext
from repro.mapping.mapping import Mapping
from repro.model.annotations import AnnotationStore, Dimension
from repro.sources.registry import SourceRegistry

__all__ = ["ScoredMapping", "MappingSelector"]


@dataclass(frozen=True)
class ScoredMapping:
    """A mapping with its per-dimension scores and final utility."""

    mapping: Mapping
    scores: dict[Dimension, float]
    utility: float


class MappingSelector:
    """Scores and selects mappings against a user context."""

    def __init__(
        self,
        registry: SourceRegistry,
        annotations: AnnotationStore,
        max_cost: float = 10.0,
    ) -> None:
        self.registry = registry
        self.annotations = annotations
        self.max_cost = max_cost

    # -- scoring -----------------------------------------------------------

    def score(self, mapping: Mapping) -> dict[Dimension, float]:
        """Estimate a mapping's quality profile from current evidence."""
        source = mapping.source_name
        target = f"source:{source}"

        reliability = (
            self.registry.reliability(source).mean
            if source in self.registry
            else 0.5
        )
        annotated_accuracy = self.annotations.score(
            target, Dimension.ACCURACY, default=reliability
        )
        accuracy = (
            annotated_accuracy + reliability + min(1.0, mapping.confidence)
        ) / 3.0

        completeness = mapping.coverage()
        completeness = 0.6 * completeness + 0.4 * self.annotations.score(
            target, Dimension.COMPLETENESS, default=completeness
        )

        if source in self.registry:
            metadata = self.registry.get(source).metadata
            cheapness = 1.0 - min(metadata.cost_per_access, self.max_cost) / self.max_cost
            # High change rate means the snapshot decays fast; the
            # timeliness annotation (from quality analysis) dominates when
            # present.
            timeliness = self.annotations.score(
                target, Dimension.TIMELINESS, default=0.8
            )
        else:
            cheapness = 0.5
            timeliness = 0.5

        relevance = self.annotations.score(
            target, Dimension.RELEVANCE, default=0.5
        )
        consistency = self.annotations.score(
            target, Dimension.CONSISTENCY, default=0.7
        )
        return {
            Dimension.ACCURACY: accuracy,
            Dimension.COMPLETENESS: completeness,
            Dimension.TIMELINESS: timeliness,
            Dimension.COST: cheapness,
            Dimension.RELEVANCE: relevance,
            Dimension.CONSISTENCY: consistency,
        }

    # -- selection ----------------------------------------------------------

    def select(
        self,
        candidates: list[Mapping],
        context: UserContext,
        limit: int | None = None,
    ) -> list[ScoredMapping]:
        """Choose the mappings to run for ``context``.

        Floors filter, the weighted rank orders, and the budget
        truncates (each mapping costs its source's access cost).  Mappings
        that do not populate the required target attributes are rejected
        outright — they cannot produce fit-for-purpose data.
        """
        viable: list[tuple[Mapping, dict[Dimension, float]]] = []
        for mapping in candidates:
            if not mapping.covers_required():
                continue
            scores = self.score(mapping)
            if not context.meets_floors(scores):
                continue
            viable.append((mapping, scores))

        alternatives = [
            Alternative(mapping.mapping_id, scores, payload=(mapping, scores))
            for mapping, scores in viable
        ]
        ranked = rank(alternatives, dict(context.weights))

        selected: list[ScoredMapping] = []
        budget = context.budget
        for alternative, utility in ranked:
            mapping, scores = alternative.payload  # type: ignore[misc]
            cost = (
                self.registry.get(mapping.source_name).metadata.cost_per_access
                if mapping.source_name in self.registry
                else 0.0
            )
            if cost > budget:
                continue
            budget -= cost
            selected.append(ScoredMapping(mapping, scores, utility))
            if limit is not None and len(selected) >= limit:
                break
        return selected

