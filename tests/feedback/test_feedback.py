"""Tests for feedback types, store, workers, reliability, propagation."""

import random

import pytest

from repro.errors import FeedbackError
from repro.feedback.propagation import FeedbackPropagator
from repro.feedback.reliability import Judgment, estimate_reliability
from repro.feedback.store import FeedbackStore
from repro.feedback.types import (
    DuplicateFeedback,
    ExtractionFeedback,
    MatchFeedback,
    RelevanceFeedback,
    ValueFeedback,
)
from repro.feedback.workers import SimulatedWorker, crowd_panel, expert
from repro.model.annotations import AnnotationStore, Dimension
from repro.model.provenance import Provenance, Step
from repro.model.records import Record, Table
from repro.model.schema import Schema
from repro.model.values import Value
from repro.sources.memory import MemorySource
from repro.sources.registry import SourceRegistry


class TestTypes:
    def test_validation(self):
        with pytest.raises(FeedbackError):
            ValueFeedback(entity="", attribute="price")
        with pytest.raises(FeedbackError):
            DuplicateFeedback(rid_a="r1", rid_b="r1")
        with pytest.raises(FeedbackError):
            MatchFeedback(source_attribute="", target_attribute="x")
        with pytest.raises(FeedbackError):
            RelevanceFeedback()
        with pytest.raises(FeedbackError):
            ExtractionFeedback(wrapper_id="")
        with pytest.raises(FeedbackError):
            ValueFeedback(entity="e", attribute="a", cost=-1)

    def test_pair_normalised(self):
        fb = DuplicateFeedback(rid_a="z", rid_b="a")
        assert fb.pair == ("a", "z")

    def test_unique_ids(self):
        a = ValueFeedback(entity="e", attribute="a")
        b = ValueFeedback(entity="e", attribute="a")
        assert a.fid != b.fid


class TestStore:
    def test_typed_queries_and_cost(self):
        store = FeedbackStore()
        store.add(ValueFeedback(entity="e1", attribute="price", cost=0.2))
        store.add(ValueFeedback(entity="e1", attribute="price", cost=0.2,
                                is_correct=False))
        store.add(DuplicateFeedback(rid_a="a", rid_b="b", cost=1.0))
        store.add(MatchFeedback(source_attribute="cost", target_attribute="price"))
        assert len(store) == 4
        assert store.total_cost() == pytest.approx(1.4)
        assert len(store.of_type(ValueFeedback)) == 2
        verdicts = store.value_verdicts()[("e1", "price")]
        assert [v.is_correct for v in verdicts] == [True, False]
        matches = store.match_verdicts()[("cost", "price")]
        assert [m.is_correct for m in matches] == [True]

    def test_by_worker(self):
        store = FeedbackStore()
        store.add(ValueFeedback(entity="e", attribute="a", worker="w1"))
        store.add(ValueFeedback(entity="e", attribute="b", worker="w2"))
        grouped = store.by_worker()
        assert set(grouped) == {"w1", "w2"}

    def test_duplicate_labels_are_majority_votes_and_a_tie_is_no(self):
        store = FeedbackStore()
        for rid_a, rid_b, verdict in [
            ("a", "b", True), ("b", "a", True), ("a", "b", False),
            ("c", "d", True), ("c", "d", False),
            ("e", "f", False),
        ]:
            store.add(DuplicateFeedback(
                rid_a=rid_a, rid_b=rid_b, is_duplicate=verdict
            ))
        assert store.duplicate_labels() == {
            ("a", "b"): True, ("c", "d"): False, ("e", "f"): False,
        }
        assert list(store.duplicate_labels()) == list(store.duplicate_verdicts())

    def test_rejected_values_need_a_strict_majority(self):
        store = FeedbackStore()
        for entity, is_correct, correction in [
            ("e1", False, 9.0), ("e1", False, None), ("e1", True, None),
            ("e2", False, 5.0), ("e2", True, None),
            ("e3", True, None),
            ("e4", False, None),
        ]:
            store.add(ValueFeedback(
                entity=entity, attribute="price",
                is_correct=is_correct, correction=correction,
            ))
        assert store.rejected_values() == {
            ("e1", "price"): [9.0], ("e4", "price"): [],
        }


class TestWorkers:
    def test_expert_mostly_right(self):
        worker = expert(seed=1)
        answers = [worker.judge(True) for __ in range(200)]
        assert sum(answers) > 180

    def test_unreliable_worker_flips(self):
        worker = SimulatedWorker("w", 0.0, 0.1, random.Random(1))
        assert worker.judge(True) is False

    def test_validation(self):
        with pytest.raises(FeedbackError):
            SimulatedWorker("w", 1.5, 0.1, random.Random(1))
        with pytest.raises(FeedbackError):
            SimulatedWorker("w", 0.5, -1, random.Random(1))

    def test_crowd_panel(self):
        panel = crowd_panel(5, seed=2)
        assert len(panel) == 5
        assert len({worker.name for worker in panel}) == 5
        assert all(0.6 <= worker.reliability <= 0.9 for worker in panel)


class TestReliabilityEstimation:
    def test_empty_rejected(self):
        with pytest.raises(FeedbackError):
            estimate_reliability([])

    def test_separates_good_and_bad_workers(self):
        rng = random.Random(3)
        truths = {f"q{i}": rng.random() < 0.5 for i in range(60)}
        judgments = []
        for item, truth in truths.items():
            judgments.append(Judgment("good", item, truth if rng.random() < 0.95 else not truth))
            judgments.append(Judgment("meh", item, truth if rng.random() < 0.7 else not truth))
            judgments.append(Judgment("bad", item, truth if rng.random() < 0.4 else not truth))
        estimate = estimate_reliability(judgments)
        assert estimate.worker_accuracy["good"] > estimate.worker_accuracy["meh"]
        assert estimate.worker_accuracy["meh"] > estimate.worker_accuracy["bad"]
        truths_hat = estimate.item_truths()
        agreement = sum(
            1 for item, truth in truths.items() if truths_hat[item] == truth
        ) / len(truths)
        assert agreement > 0.85

    def test_accuracies_clamped(self):
        judgments = [Judgment("w", f"q{i}", True) for i in range(10)]
        estimate = estimate_reliability(judgments)
        assert estimate.worker_accuracy["w"] <= 0.95


def fused_table_with_provenance():
    """A fused table whose price cell is supported by sources a and b."""
    schema = Schema.of("product", "price")
    prov = Provenance.combine(
        Step.FUSION,
        "weighted:e1",
        (
            Provenance.source("src-a").derive(Step.MAPPING, "m1"),
            Provenance.source("src-b").derive(Step.MAPPING, "m2"),
        ),
    )
    record = Record.of(
        {
            "product": "Acme TV",
            "price": Value(399.0, provenance=prov),
        },
        source="fused",
        rid="e1",
    )
    table = Table("wrangled", schema)
    table.append(record)
    return table


class TestPropagation:
    @pytest.fixture
    def setup(self):
        registry = SourceRegistry()
        registry.register(MemorySource("src-a", [{"x": 1}]))
        registry.register(MemorySource("src-b", [{"x": 1}]))
        store = FeedbackStore()
        annotations = AnnotationStore()
        return registry, store, annotations

    def test_value_feedback_updates_supporting_sources(self, setup):
        registry, store, annotations = setup
        before_a = registry.reliability("src-a").mean
        store.add(ValueFeedback(entity="e1", attribute="price", is_correct=False))
        store.add(ValueFeedback(entity="e1", attribute="price", is_correct=False,
                                worker="w2"))
        propagator = FeedbackPropagator(store, registry, annotations)
        report = propagator.propagate(wrangled=fused_table_with_provenance())
        assert registry.reliability("src-a").mean < before_a
        assert registry.reliability("src-b").mean < before_a
        assert report.source_observations["src-a"] == [False]
        # the same feedback also produced accuracy annotations
        assert annotations.score("source:src-a", Dimension.ACCURACY) < 0.5

    def test_conflicting_value_feedback_is_inert(self, setup):
        registry, store, annotations = setup
        before = registry.reliability("src-a").mean
        store.add(ValueFeedback(entity="e1", attribute="price", is_correct=True,
                                worker="w1"))
        store.add(ValueFeedback(entity="e1", attribute="price", is_correct=False,
                                worker="w2"))
        propagator = FeedbackPropagator(store, registry, annotations)
        propagator.propagate(wrangled=fused_table_with_provenance())
        assert registry.reliability("src-a").mean == pytest.approx(before)

    def test_match_feedback_becomes_matcher_evidence(self, setup):
        registry, store, annotations = setup
        store.add(MatchFeedback(source_attribute="cost", target_attribute="price"))
        store.add(MatchFeedback(source_attribute="cost", target_attribute="price",
                                worker="w2"))
        report = FeedbackPropagator(store, registry, annotations).propagate()
        assert report.match_evidence[("cost", "price")]
        assert all(report.match_evidence[("cost", "price")])

    def test_relevance_feedback_annotates_source(self, setup):
        registry, store, annotations = setup
        store.add(RelevanceFeedback(source_name="src-b", is_relevant=False))
        report = FeedbackPropagator(store, registry, annotations).propagate()
        assert report.relevance_annotations == 1
        assert annotations.score("source:src-b", Dimension.RELEVANCE) < 0.5

    def test_wrapper_observations_collected(self, setup):
        registry, store, annotations = setup
        store.add(ExtractionFeedback(wrapper_id="w-9", attribute="price",
                                     is_correct=False))
        report = FeedbackPropagator(store, registry, annotations).propagate()
        assert report.wrapper_observations["w-9"] == [False]

    def test_worker_accuracy_estimated_from_overlap(self, setup):
        registry, store, annotations = setup
        # 'contrarian' disagrees with three others on every question.
        for question in range(8):
            for worker in ("w1", "w2", "w3"):
                store.add(
                    ValueFeedback(entity=f"e{question}", attribute="p",
                                  is_correct=True, worker=worker)
                )
            store.add(
                ValueFeedback(entity=f"e{question}", attribute="p",
                              is_correct=False, worker="contrarian")
            )
        report = FeedbackPropagator(store, registry, annotations).propagate()
        assert report.worker_accuracy["contrarian"] < 0.3
        assert report.worker_accuracy["w1"] > 0.8
