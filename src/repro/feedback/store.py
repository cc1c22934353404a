"""The feedback store: part of the working data of Figure 1."""

from __future__ import annotations

from typing import Iterator, Type, TypeVar

from repro.feedback.types import (
    DuplicateFeedback,
    Feedback,
    MatchFeedback,
    RelevanceFeedback,
    ValueFeedback,
)

__all__ = ["FeedbackStore"]

F = TypeVar("F", bound=Feedback)


class FeedbackStore:
    """An append-only, queryable log of all feedback ever received."""

    def __init__(self) -> None:
        self._items: list[Feedback] = []

    def add(self, item: Feedback) -> Feedback:
        """Record one feedback item."""
        self._items.append(item)
        return item

    def extend(self, items: list[Feedback]) -> None:
        """Record many feedback items."""
        self._items.extend(items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Feedback]:
        return iter(self._items)

    def of_type(self, feedback_type: Type[F]) -> list[F]:
        """All items of one feedback type."""
        return [
            item for item in self._items if isinstance(item, feedback_type)
        ]

    def total_cost(self) -> float:
        """Everything the feedback has cost so far (the "payment")."""
        return sum(item.cost for item in self._items)

    def by_worker(self) -> dict[str, list[Feedback]]:
        """Items grouped by the worker who produced them."""
        grouped: dict[str, list[Feedback]] = {}
        for item in self._items:
            grouped.setdefault(item.worker, []).append(item)
        return grouped

    # -- typed conveniences used by the propagation layer -----------------

    def value_verdicts(self) -> dict[tuple[str, str], list[ValueFeedback]]:
        """Value feedback grouped by (entity, attribute)."""
        grouped: dict[tuple[str, str], list[ValueFeedback]] = {}
        for item in self.of_type(ValueFeedback):
            grouped.setdefault((item.entity, item.attribute), []).append(item)
        return grouped

    def duplicate_verdicts(self) -> dict[tuple[str, str], list[DuplicateFeedback]]:
        """Duplicate feedback grouped by record pair."""
        grouped: dict[tuple[str, str], list[DuplicateFeedback]] = {}
        for item in self.of_type(DuplicateFeedback):
            grouped.setdefault(item.pair, []).append(item)
        return grouped

    def match_verdicts(self) -> dict[tuple[str, str], list[MatchFeedback]]:
        """Match feedback grouped by (source attribute, target attribute)."""
        grouped: dict[tuple[str, str], list[MatchFeedback]] = {}
        for item in self.of_type(MatchFeedback):
            key = (item.source_attribute, item.target_attribute)
            grouped.setdefault(key, []).append(item)
        return grouped

    def relevance_verdicts(self) -> dict[str, list[RelevanceFeedback]]:
        """Relevance feedback grouped by source name (source-level only)."""
        grouped: dict[str, list[RelevanceFeedback]] = {}
        for item in self.of_type(RelevanceFeedback):
            if item.source_name:
                grouped.setdefault(item.source_name, []).append(item)
        return grouped

    # -- majority votes: what the judges of one question decided ----------

    def duplicate_labels(self) -> dict[tuple[str, str], bool]:
        """Each judged record pair's majority verdict (a tie is "not a
        duplicate") — the labels entity resolution refits its rule on."""
        return {
            pair: 2 * sum(item.is_duplicate for item in items) > len(items)
            for pair, items in self.duplicate_verdicts().items()
        }

    def rejected_values(self) -> dict[tuple[str, str], list[object]]:
        """Each (entity, attribute) cell a strict majority judged wrong (a
        tie is not a rejection), with the corrections its judges
        supplied — what fusion folds back into the wrangled data."""
        return {
            key: [
                item.correction for item in items
                if item.correction is not None
            ]
            for key, items in self.value_verdicts().items()
            if 2 * sum(item.is_correct for item in items) < len(items)
        }
