"""Schema matching with pluggable evidence channels (paper Section 2.3).

"A product types ontology could be used ... as an input to the matching of
sources that supplements syntactic matching."  The matcher therefore pools
independent evidence channels per candidate correspondence:

* **name** — string similarity between attribute names;
* **instance** — type and value-shape compatibility of the source column
  against the target attribute's declared type (plus vocabulary overlap
  when the data context supplies reference values);
* **ontology** — semantic similarity of the two names in the domain
  ontology;
* **feedback** — accumulated user/crowd verdicts on this correspondence.

Channels can be switched off individually, which is exactly the ablation
experiment E4 runs.  Evidence is pooled with the shared log-odds algebra
and a one-to-one assignment is chosen greedily.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.context.data_context import DataContext
from repro.errors import TypeInferenceError
from repro.model.records import Table
from repro.model.schema import Attribute, DataType, Schema, coerce, infer_types
from repro.model.uncertainty import Evidence, pool_evidence
from repro.matching.similarity import name_similarity, token_set, jaccard

__all__ = ["Correspondence", "SchemaMatcher"]

_match_counter = itertools.count(1)


@dataclass(frozen=True)
class Correspondence:
    """A scored candidate attribute correspondence."""

    source_attribute: str
    target_attribute: str
    confidence: float
    evidence: tuple[Evidence, ...] = ()
    match_id: str = field(
        default_factory=lambda: f"match-{next(_match_counter)}"
    )


class SchemaMatcher:
    """Evidence-pooling schema matcher.

    ``channels`` selects the evidence channels to use; ``context``
    provides the ontology and reference vocabularies; ``feedback`` is a
    mapping ``(source_attr, target_attr) -> list of booleans`` (True =
    user confirmed, False = user rejected) maintained by the feedback
    propagation layer.
    """

    ALL_CHANNELS = ("name", "instance", "ontology", "feedback")

    def __init__(
        self,
        context: DataContext | None = None,
        channels: Sequence[str] = ALL_CHANNELS,
        threshold: float = 0.5,
        feedback: Mapping[tuple[str, str], Sequence[bool]] | None = None,
    ) -> None:
        unknown = set(channels) - set(self.ALL_CHANNELS)
        if unknown:
            raise ValueError(f"unknown evidence channels: {sorted(unknown)}")
        self.context = context
        self.channels = tuple(channels)
        self.threshold = threshold
        self.feedback = dict(feedback or {})

    # -- evidence channels -------------------------------------------------

    def _name_evidence(self, source: str, target: Attribute) -> Evidence | None:
        score = name_similarity(source, target.name)
        if target.description:
            # Descriptions are hints, not names: token overlap only, damped,
            # so "offer page" cannot hijack "offer_price".
            description_score = 0.9 * jaccard(
                token_set(source), token_set(target.description)
            )
            score = max(score, description_score)
        # Bound away from 0/1: a dissimilar name is mild counter-evidence,
        # never a veto (the other channels may know better).
        return Evidence("name", 0.05 + 0.9 * score, weight=1.0)

    def _instance_sample(
        self, table: Table, source_attribute: str
    ) -> tuple[list[object], set[DataType]] | None:
        """A column's first 50 populated values and the dtypes among them
        (``None`` when the channel is off); every target attribute of a
        match is scored against the one sample."""
        if "instance" not in self.channels:
            return None
        raws = (v.raw for v in table.column(source_attribute))
        populated = (v for v in raws if v is not None and str(v).strip())
        sample = list(itertools.islice(populated, 50))
        return sample, set(infer_types(sample)[1])

    def _instance_evidence(
        self, sample: list[object], inferred: set[DataType], target: Attribute
    ) -> Evidence | None:
        if not sample:
            return None
        coercible = 0
        for raw in sample:
            try:
                coerce(raw, target.dtype)
            except TypeInferenceError:
                continue
            coercible += 1
        type_score = coercible / len(sample)
        if target.dtype is DataType.STRING:
            # Everything coerces to string; look at the inferred type instead.
            type_score = 0.7 if inferred == {DataType.STRING} else 0.4
        score = type_score
        if self.context is not None:
            vocabulary = self.context.vocabulary(target.name)
            if vocabulary:
                hits = sum(1 for raw in sample if raw in vocabulary)
                vocab_score = hits / len(sample)
                score = 0.4 * type_score + 0.6 * vocab_score
        # Type compatibility alone is weak evidence: scale into [0.2, 0.8]
        # so it can support or damp, but never decide by itself.
        return Evidence("instance", 0.2 + 0.6 * score, weight=0.8)

    def _ontology_evidence(
        self, source: str, target: Attribute
    ) -> Evidence | None:
        if self.context is None or self.context.ontology is None:
            return None
        score = self.context.ontology.term_similarity(source, target.name)
        if score == 0.0:
            return None  # the ontology is silent, not negative
        return Evidence("ontology", min(score, 0.95), weight=1.2)

    def _feedback_evidence(
        self, source: str, target: Attribute
    ) -> Evidence | None:
        verdicts = self.feedback.get((source, target.name))
        if not verdicts:
            return None
        positive = sum(1 for v in verdicts if v)
        # Laplace-smoothed agreement rate, weighted by how much feedback
        # there is — one click is a hint, five are a decision that must be
        # able to overrule even a confident ontology correspondence.
        score = (positive + 1) / (len(verdicts) + 2)
        return Evidence(
            "feedback", score, weight=min(3.0, 0.75 * len(verdicts))
        )

    # -- matching -----------------------------------------------------------

    def score_pair(
        self, table: Table, source_attribute: str, target: Attribute
    ) -> Correspondence:
        """Score one candidate correspondence with all enabled channels."""
        return self._score(
            source_attribute, target, self._instance_sample(table, source_attribute)
        )

    def _score(
        self,
        source_attribute: str,
        target: Attribute,
        instance: tuple[list[object], set[DataType]] | None,
    ) -> Correspondence:
        evidence: list[Evidence] = []
        if "name" in self.channels:
            item = self._name_evidence(source_attribute, target)
            if item is not None:
                evidence.append(item)
        if instance is not None:
            item = self._instance_evidence(*instance, target)
            if item is not None:
                evidence.append(item)
        if "ontology" in self.channels:
            item = self._ontology_evidence(source_attribute, target)
            if item is not None:
                evidence.append(item)
        if "feedback" in self.channels:
            item = self._feedback_evidence(source_attribute, target)
            if item is not None:
                evidence.append(item)
        confidence = pool_evidence(evidence, prior=0.5)
        return Correspondence(
            source_attribute, target.name, confidence, tuple(evidence)
        )

    def match(self, table: Table, target_schema: Schema) -> list[Correspondence]:
        """One-to-one correspondences from ``table`` into ``target_schema``.

        Greedy best-first assignment over all scored pairs; only pairs at
        or above the threshold survive.  Evaluation-only attributes
        (leading underscore) are never matched.
        """
        candidates: list[Correspondence] = []
        for source_attribute in table.schema.names:
            if source_attribute.startswith("_"):
                continue
            instance = self._instance_sample(table, source_attribute)
            for target in target_schema:
                candidates.append(self._score(source_attribute, target, instance))
        candidates.sort(key=lambda c: -c.confidence)
        chosen: list[Correspondence] = []
        used_sources: set[str] = set()
        used_targets: set[str] = set()
        for candidate in candidates:
            if candidate.confidence < self.threshold:
                break
            if (
                candidate.source_attribute in used_sources
                or candidate.target_attribute in used_targets
            ):
                continue
            chosen.append(candidate)
            used_sources.add(candidate.source_attribute)
            used_targets.add(candidate.target_attribute)
        return chosen

