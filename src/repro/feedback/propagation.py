"""Feedback propagation: one judgment, many informed components.

This is the paper's sharpest architectural demand (Sections 2.4, 3.2):
"the identification of several correct (or incorrect) results may inform
both source selection and mapping generation", whereas prior systems used
"a single type of feedback ... to support a single data management task".

The propagator turns the feedback store into updates for every component:

* value verdicts → per-source reliability observations (via the fused
  cell's provenance) and source accuracy annotations → which steer
  **source selection**, **mapping selection**, and **fusion weights**;
* duplicate verdicts → labelled training pairs → retrained **ER rules**
  (the resolve stage refits its threshold on the store's
  ``duplicate_labels()``);
* match verdicts → the evidence channel of the **schema matcher**;
* relevance verdicts → relevance annotations → **source selection**;
* extraction verdicts → wrapper reliability → **extraction repair**.

Worker reliability is estimated from overlapping judgments (Dawid–Skene
EM) so crowd noise is discounted before it moves anything.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from repro.feedback.reliability import Judgment, estimate_reliability
from repro.feedback.store import FeedbackStore
from repro.feedback.types import (
    ExtractionFeedback,
    Feedback,
    RelevanceFeedback,
    ValueFeedback,
)
from repro.model.annotations import AnnotationStore, Dimension, QualityAnnotation
from repro.model.records import Table
from repro.model.uncertainty import log_odds_pool
from repro.obs.metrics import MetricsRegistry
from repro.sources.registry import SourceRegistry

__all__ = ["PropagationReport", "FeedbackPropagator"]


@dataclass
class PropagationReport:
    """What one propagation pass changed, for logs and experiments."""

    source_observations: dict[str, list[bool]] = field(default_factory=dict)
    match_evidence: dict[tuple[str, str], list[bool]] = field(default_factory=dict)
    relevance_annotations: int = 0
    wrapper_observations: dict[str, list[bool]] = field(default_factory=dict)
    worker_accuracy: dict[str, float] = field(default_factory=dict)


class FeedbackPropagator:
    """Routes each item of the feedback store, once, to every consumer."""

    def __init__(
        self,
        store: FeedbackStore,
        registry: SourceRegistry,
        annotations: AnnotationStore,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.store = store
        self.registry = registry
        self.annotations = annotations
        self.metrics = metrics

    # -- worker reliability -------------------------------------------------

    def worker_accuracies(self) -> dict[str, float]:
        """Estimated reliability per worker, from overlapping judgments.

        Every binary feedback item is a judgment (its ``answer``) on a
        ``question`` keyed by its type and target; workers who contradict
        the consensus lose weight.
        Workers with no overlap keep a neutral 0.8.
        """
        judgments = [
            Judgment(item.worker, question, item.answer)
            for item in self.store
            if (question := item.question) is not None
        ]
        if not judgments:
            return {}
        estimate = estimate_reliability(judgments)
        return estimate.worker_accuracy

    def _consolidate(
        self,
        verdicts: list[bool],
        workers: list[str],
        accuracy: dict[str, float],
    ) -> float:
        """Probability the asserted fact holds, given weighted verdicts."""
        probabilities = []
        weights = []
        for verdict, worker in zip(verdicts, workers):
            reliability = accuracy.get(worker, 0.8)
            probabilities.append(reliability if verdict else 1.0 - reliability)
            weights.append(1.0)
        return log_odds_pool(probabilities, weights, prior=0.5)

    # -- propagation passes ------------------------------------------------

    def propagate(
        self,
        wrangled: Table | None = None,
        items: Sequence[Feedback] | None = None,
    ) -> PropagationReport:
        """Fold ``items`` — feedback just added to the store; the whole
        store when ``None`` — into every consumer and return what changed.

        Each item is folded once: only the value cells and sources the
        items judge are re-consolidated (over all their verdicts so far)
        and observed, and each relevance item adds one annotation, so
        propagating nothing new changes no belief.  Match evidence is
        recomputed from the whole store: the matcher's channel replaces
        it, it does not accumulate.
        """
        if items is None:
            items = list(self.store)
        report = PropagationReport()
        report.worker_accuracy = self.worker_accuracies()

        if wrangled is not None:
            self._propagate_values(wrangled, items, report)
        self._propagate_matches(report)
        self._propagate_relevance(items, report)
        self._propagate_wrappers(items, report)
        if self.metrics is not None:
            self.metrics.counter("feedback.propagations").increment()
            self.metrics.counter("feedback.source_observations").increment(
                sum(len(v) for v in report.source_observations.values())
            )
            self.metrics.counter("feedback.match_evidence_keys").increment(
                len(report.match_evidence)
            )
            self.metrics.counter("feedback.relevance_annotations").increment(
                report.relevance_annotations
            )
            self.metrics.counter("feedback.wrapper_observations").increment(
                sum(len(v) for v in report.wrapper_observations.values())
            )
        return report

    def _propagate_values(
        self,
        wrangled: Table,
        fresh: Sequence[Feedback],
        report: PropagationReport,
    ) -> None:
        accuracy = report.worker_accuracy
        touched = {
            (item.entity, item.attribute)
            for item in fresh
            if isinstance(item, ValueFeedback)
        }
        fused_by_rid = {record.rid: record for record in wrangled}
        for (entity, attribute), items in self.store.value_verdicts().items():
            if (entity, attribute) not in touched:
                continue
            record = fused_by_rid.get(entity)
            if record is None:
                continue
            value = record.get(attribute)
            if value.is_missing:
                continue
            probability = self._consolidate(
                [item.is_correct for item in items],
                [item.worker for item in items],
                accuracy,
            )
            if abs(probability - 0.5) < 0.05:
                continue  # verdicts cancel out; nothing to learn
            verdict = probability > 0.5
            weight = abs(probability - 0.5) * 2.0
            for source in value.provenance.sources():
                if source in self.registry:
                    self.registry.observe(source, verdict, weight=weight)
                    report.source_observations.setdefault(source, []).append(verdict)
                    self.annotations.add(
                        QualityAnnotation(
                            f"source:{source}",
                            Dimension.ACCURACY,
                            1.0 if verdict else 0.0,
                            confidence=weight,
                            origin="feedback",
                        )
                    )

    def _propagate_matches(self, report: PropagationReport) -> None:
        accuracy = report.worker_accuracy
        for key, items in self.store.match_verdicts().items():
            probability = self._consolidate(
                [item.is_correct for item in items],
                [item.worker for item in items],
                accuracy,
            )
            # Replay as weighted booleans: the matcher's feedback channel
            # consumes plain verdict lists.
            count = max(1, round(len(items) * abs(probability - 0.5) * 2))
            report.match_evidence[key] = [probability > 0.5] * count

    def _propagate_relevance(
        self, fresh: Sequence[Feedback], report: PropagationReport
    ) -> None:
        accuracy = report.worker_accuracy
        judged = Counter(
            item.source_name
            for item in fresh
            if isinstance(item, RelevanceFeedback)
        )
        for source, items in self.store.relevance_verdicts().items():
            if source not in judged:
                continue
            probability = self._consolidate(
                [item.is_relevant for item in items],
                [item.worker for item in items],
                accuracy,
            )
            # One annotation per judgment: repeated feedback must be able to
            # outweigh the optimistic defaults other analyses wrote.
            for __ in range(judged[source]):
                self.annotations.add(
                    QualityAnnotation(
                        f"source:{source}",
                        Dimension.RELEVANCE,
                        probability,
                        confidence=1.0,
                        origin="feedback",
                    )
                )
            report.relevance_annotations += 1

    def _propagate_wrappers(
        self, fresh: Sequence[Feedback], report: PropagationReport
    ) -> None:
        for item in fresh:
            if isinstance(item, ExtractionFeedback):
                report.wrapper_observations.setdefault(
                    item.wrapper_id, []
                ).append(item.is_correct)
