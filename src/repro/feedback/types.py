"""Typed feedback: the "payment" of pay-as-you-go wrangling.

Section 2.4: feedback must be allowed "in whatever form the user chooses"
and "feedback of one type should be able to inform many different steps in
the wrangling process".  Each feedback item is therefore a small, typed,
attributable fact — who said it, what it cost, what it asserts — that the
propagation layer can route to every component that can learn from it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from repro.errors import FeedbackError
from repro.sources.base import DataSource, DocumentSource

__all__ = [
    "Feedback",
    "ValueFeedback",
    "DuplicateFeedback",
    "MatchFeedback",
    "RelevanceFeedback",
    "ExtractionFeedback",
    "DIRTIES",
]

_feedback_counter = itertools.count(1)


@dataclass(frozen=True)
class Feedback:
    """Common envelope: the worker who judged, and what the judgment cost."""

    worker: str = "expert"
    cost: float = 0.0
    fid: int = field(default_factory=lambda: next(_feedback_counter))

    def __post_init__(self) -> None:
        # NaN passes ``< 0`` and would turn the ledger's total into NaN.
        if not math.isfinite(self.cost) or self.cost < 0:
            raise FeedbackError("feedback cost must be finite and non-negative")

    @property
    def question(self) -> str | None:
        """What the item judges, keyed so that two workers judging the
        same thing collide (``None``: the bare envelope judges nothing).
        Worker reliability is estimated from answers to shared questions.
        """
        return None

    @property
    def answer(self) -> bool:
        """The worker's binary verdict on :attr:`question`."""
        return False


@dataclass(frozen=True)
class ValueFeedback(Feedback):
    """A verdict on one cell of the wrangled data.

    ``entity`` is the fused record's id, ``attribute`` the cell; when the
    value is wrong the user may optionally supply the ``correction``.
    """

    entity: str = ""
    attribute: str = ""
    is_correct: bool = True
    correction: object | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.entity or not self.attribute:
            raise FeedbackError("value feedback needs an entity and attribute")
        # Fusion tallies corrections as dictionary keys.
        try:
            hash(self.correction)
        except TypeError:
            raise FeedbackError("a value correction must be hashable") from None

    @property
    def question(self) -> str:
        return f"value:{self.entity}:{self.attribute}"

    @property
    def answer(self) -> bool:
        return self.is_correct


@dataclass(frozen=True)
class DuplicateFeedback(Feedback):
    """A verdict on whether two records describe the same real-world object."""

    rid_a: str = ""
    rid_b: str = ""
    is_duplicate: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.rid_a or not self.rid_b or self.rid_a == self.rid_b:
            raise FeedbackError("duplicate feedback needs two distinct records")

    @property
    def pair(self) -> tuple[str, str]:
        """The record pair, order-normalised."""
        return tuple(sorted((self.rid_a, self.rid_b)))  # type: ignore[return-value]

    @property
    def question(self) -> str:
        return "dup:{}:{}".format(*self.pair)

    @property
    def answer(self) -> bool:
        return self.is_duplicate


@dataclass(frozen=True)
class MatchFeedback(Feedback):
    """A verdict on one schema correspondence."""

    source_name: str = ""
    source_attribute: str = ""
    target_attribute: str = ""
    is_correct: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.source_attribute or not self.target_attribute:
            raise FeedbackError("match feedback needs both attribute names")

    @property
    def question(self) -> str:
        return f"match:{self.source_attribute}:{self.target_attribute}"

    @property
    def answer(self) -> bool:
        return self.is_correct


@dataclass(frozen=True)
class RelevanceFeedback(Feedback):
    """A verdict on whether an entity (or a whole source) matters to the user."""

    entity: str = ""
    source_name: str = ""
    is_relevant: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.entity and not self.source_name:
            raise FeedbackError(
                "relevance feedback needs an entity or a source"
            )

    @property
    def question(self) -> str:
        return f"rel:{self.source_name or self.entity}"

    @property
    def answer(self) -> bool:
        return self.is_relevant


@dataclass(frozen=True)
class ExtractionFeedback(Feedback):
    """A verdict on whether a wrapper extracted an attribute correctly."""

    wrapper_id: str = ""
    attribute: str = ""
    is_correct: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.wrapper_id:
            raise FeedbackError("extraction feedback needs a wrapper id")

    @property
    def question(self) -> str:
        return f"ext:{self.wrapper_id}:{self.attribute}"

    @property
    def answer(self) -> bool:
        return self.is_correct


#: The invalidation policy ``Wrangler.apply_feedback`` reads: feedback
#: type → (the dataflow node kinds one item of it dirties, the source
#: shape a per-source kind concerns).  ``None`` marks global nodes.
#: Otherwise the item dirties ``kind:<source>`` for the one source it
#: names — by ``source_name``, or as the owner of the wrapper it judges —
#: and, when it names none, for every registered source of that shape.
#: A new feedback type is its class above and one row here.
DIRTIES: dict[type, tuple[tuple[str, ...], type | None]] = {
    # Reliabilities moved: fusion weights and source scores.
    ValueFeedback: (("fuse", "select"), None),
    MatchFeedback: (("match",), DataSource),
    DuplicateFeedback: (("refit",), None),
    RelevanceFeedback: (("select",), None),
    ExtractionFeedback: (("acquire",), DocumentSource),
}
