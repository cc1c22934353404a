"""Integration tests: the autonomic Wrangler end to end."""

import dataclasses
import datetime
import importlib.util
from pathlib import Path

import pytest

from repro.baselines.static_etl import StaticETL
from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.core.planner import AutonomicPlanner
from repro.core.wrangler import Wrangler
from repro.datagen.htmlgen import annotations_for, render_site
from repro.datagen.ontologies import product_ontology
from repro.datagen.products import TARGET_SCHEMA, SourceSpec, generate_world
from repro.errors import PlanningError
from repro.evaluation import pair_metrics, truth_labels, wrangle_scorecard
from repro.feedback.types import (
    DuplicateFeedback,
    MatchFeedback,
    RelevanceFeedback,
    ValueFeedback,
)
from repro.model.annotations import Dimension
from repro.model.workingdata import table_fingerprint
from repro.sources.memory import MemoryDocumentSource, MemorySource

TODAY = datetime.date(2016, 3, 15)
QUICKSTART = Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"


@pytest.fixture(scope="module")
def world():
    return generate_world(n_products=30, n_sources=4, seed=77)


def make_wrangler(world, user=None, budget=50.0):
    user = user or UserContext.precision_first("analyst", TARGET_SCHEMA,
                                               budget=budget)
    data = DataContext("products").with_ontology(product_ontology())
    data.add_master("catalog", world.ground_truth)
    wrangler = Wrangler(user, data, master_key="catalog",
                        join_attribute="product", today=TODAY)
    for name, rows in world.source_rows.items():
        wrangler.add_source(
            MemorySource(name, rows, cost_per_access=world.specs[name].cost)
        )
    return wrangler


class TestRun:
    def test_no_sources_rejected(self):
        user = UserContext.precision_first("u", TARGET_SCHEMA)
        with pytest.raises(PlanningError):
            Wrangler(user).run()

    def test_end_to_end_quality(self, world):
        result = make_wrangler(world).run()
        scorecard = wrangle_scorecard(result.table, world)
        assert scorecard["coverage"] > 0.8
        # four sources, some of them biased aggregators; the median holds
        # the line but cannot beat a biased majority on every product
        assert scorecard["price_accuracy"] > 0.4
        assert result.quality.scores[Dimension.COMPLETENESS] > 0.8

    def test_er_quality(self, world):
        wrangler = make_wrangler(world)
        result = wrangler.run()
        translated = wrangler.working.get("table", "translated")
        metrics = pair_metrics(result.resolution, truth_labels(translated))
        assert metrics.precision > 0.9
        assert metrics.recall > 0.8

    def test_plan_is_explained(self, world):
        result = make_wrangler(world).run()
        explanation = result.explain()
        assert "wrangle plan" in explanation
        assert "ER threshold" in explanation
        assert "quality:" in explanation

    def test_working_data_populated(self, world):
        wrangler = make_wrangler(world)
        result = wrangler.run()
        summary = wrangler.working.summary()
        selected = len(result.plan.sources)
        assert summary["table"] >= 2 * selected  # raw + mapped per source
        assert summary["mapping"] >= selected
        assert summary["match"] == len(world.source_rows)
        assert wrangler.working.contains("entity", "clusters")
        assert wrangler.working.contains("report", "probes")

    def test_provenance_reaches_sources(self, world):
        wrangler = make_wrangler(world)
        result = wrangler.run()
        record = result.table[0]
        value = record.get("product")
        assert value.provenance.sources() <= set(world.source_rows)
        why = result.why(record.rid, "product")
        assert "fusion" in why and "mapping" in why and "source" in why

    def test_run_is_idempotent(self, world):
        wrangler = make_wrangler(world)
        first = wrangler.run()
        runs_after_first = wrangler.recompute_count()
        second = wrangler.run()
        assert wrangler.recompute_count() == runs_after_first
        assert table_fingerprint(second.table) == table_fingerprint(
            first.table
        )

    @pytest.mark.parametrize("seed", [2016, 1, 7])
    def test_source_registration_order_does_not_change_the_table(self, seed):
        spec = importlib.util.spec_from_file_location("quickstart", QUICKSTART)
        quickstart = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(quickstart)
        world = generate_world(n_products=60, n_sources=6, seed=seed)
        reversed_world = dataclasses.replace(
            world, source_rows=dict(reversed(world.source_rows.items()))
        )
        forward = quickstart.build_wrangler(world).run()
        backward = quickstart.build_wrangler(reversed_world).run()
        assert table_fingerprint(backward.table) == table_fingerprint(
            forward.table
        )

    def test_budget_limits_sources(self, world):
        cheap = make_wrangler(world, budget=2.0)
        result = cheap.run()
        assert len(result.plan.sources) < len(world.source_rows)


class TestContextSensitivity:
    def test_contexts_produce_different_pipelines(self, world):
        precision = make_wrangler(
            world, UserContext.precision_first("p", TARGET_SCHEMA)
        ).run()
        completeness = make_wrangler(
            world, UserContext.completeness_first("c", TARGET_SCHEMA)
        ).run()
        assert precision.plan.er_threshold > completeness.plan.er_threshold
        # the completeness context keeps more sources in play
        assert len(completeness.plan.sources) >= len(precision.plan.sources)

    def test_wrangler_beats_static_etl_on_accuracy(self, world):
        wrangled = make_wrangler(world).run()
        etl = StaticETL(TARGET_SCHEMA)
        for name, rows in world.source_rows.items():
            etl.add_source(MemorySource(name, rows))
        etl_output = etl.run()
        ours = wrangle_scorecard(wrangled.table, world)
        theirs = wrangle_scorecard(etl_output, world)
        assert ours["price_accuracy"] >= theirs["price_accuracy"]
        assert ours["coverage"] >= theirs["coverage"] - 0.1


class TestDocumentSources:
    def test_web_source_wrangled_via_induction(self, world):
        # Render one retailer's listings as a messy web site.
        truth = world.truth_by_id()
        listings = []
        for row in list(truth.values())[:20]:
            listings.append(
                {
                    "product": str(row["product"]),
                    "brand": str(row["brand"]),
                    "price": f"${float(row['price']):.2f}",
                    "url": str(row["url"]),
                    "updated": "2016-03-15",
                }
            )
        site = render_site("webshop", listings, template="grid")
        user = UserContext.precision_first("u", TARGET_SCHEMA)
        data = DataContext("products").with_ontology(product_ontology())
        wrangler = Wrangler(user, data, today=TODAY)
        source = MemoryDocumentSource("webshop", site.pages)
        wrangler.add_source(source)
        wrangler.annotate_examples("webshop", annotations_for(site, 3))
        result = wrangler.run()
        assert len(result.table) >= 15
        assert wrangler.working.contains("wrapper", "webshop")
        prices = [r.raw("price") for r in result.table if r.raw("price")]
        assert all(isinstance(p, float) for p in prices)


class TestPayAsYouGo:
    def test_value_feedback_improves_reliability_model(self, world):
        wrangler = make_wrangler(world)
        result = wrangler.run()
        # Blame the price of every entity the noisy aggregators got wrong.
        truth = world.truth_by_id()
        items = []
        for record in result.table:
            truth_id = record.raw("_truth")
            if truth_id not in truth:
                continue
            price = record.get("price")
            if price.is_missing:
                continue
            correct = abs(float(price.raw) - float(truth[truth_id]["price"])) < 0.01
            items.append(
                ValueFeedback(entity=record.rid, attribute="price",
                              is_correct=correct, cost=0.2)
            )
            if len(items) >= 10:
                break
        wrangler.apply_feedback(items)
        updated = wrangler.run()
        assert updated.feedback_cost == pytest.approx(2.0)
        # reliabilities are no longer all at the prior
        scores = wrangler.registry.reliability_scores()
        assert len(set(round(s, 3) for s in scores.values())) > 1

    def test_feedback_recompute_is_incremental(self, world):
        wrangler = make_wrangler(world)
        wrangler.run()
        full_runs = wrangler.recompute_count()
        wrangler.apply_feedback(
            [ValueFeedback(entity="x", attribute="price", is_correct=True)]
        )
        wrangler.run()
        incremental = wrangler.recompute_count() - full_runs
        # only select/translate/resolve/fuse/repair cone, not acquisition
        assert incremental < full_runs / 2
        for name in world.source_rows:
            assert wrangler.flow.runs(f"acquire:{name}") == 1

    def test_match_feedback_rewires_matching(self, world):
        wrangler = make_wrangler(world)
        wrangler.run()
        source = next(iter(world.source_rows))
        mapping_before = wrangler.working.get("mapping", source)
        # reject every correspondence of one source attribute
        target = mapping_before.attribute_maps[0]
        wrangler.apply_feedback(
            [
                MatchFeedback(
                    source_name=source,
                    source_attribute=target.source,
                    target_attribute=target.target,
                    is_correct=False,
                )
                for __ in range(5)
            ]
        )
        wrangler.run()
        mapping_after = wrangler.working.get("mapping", source)
        assert all(
            not (m.source == target.source and m.target == target.target)
            for m in mapping_after.attribute_maps
        )

    def test_duplicate_feedback_retrains_er(self, world):
        user = UserContext.completeness_first("c", TARGET_SCHEMA)
        wrangler = make_wrangler(world, user)
        result = wrangler.run()
        translated = wrangler.working.get("table", "translated")
        labels = truth_labels(translated)
        rids = list(labels)
        # label a handful of true duplicate pairs and true distinct pairs
        items = []
        positives = negatives = 0
        for i, left in enumerate(rids):
            for right in rids[i + 1:]:
                same = labels[left] == labels[right] and labels[left] is not None
                if same and positives < 5:
                    items.append(DuplicateFeedback(rid_a=left, rid_b=right,
                                                   is_duplicate=True))
                    positives += 1
                elif not same and negatives < 5:
                    items.append(DuplicateFeedback(rid_a=left, rid_b=right,
                                                   is_duplicate=False))
                    negatives += 1
        wrangler.apply_feedback(items)
        retrained = wrangler.run()
        before = pair_metrics(result.resolution, labels)
        after = pair_metrics(retrained.resolution, labels)
        assert after.f1 >= before.f1 - 0.05

    def test_relevance_feedback_influences_selection(self, world):
        wrangler = make_wrangler(world)
        wrangler.run()
        victim = next(iter(world.source_rows))
        wrangler.apply_feedback(
            [
                RelevanceFeedback(source_name=victim, is_relevant=False)
                for __ in range(4)
            ]
        )
        wrangler.run()
        score = wrangler.working.annotations.score(
            f"source:{victim}", Dimension.RELEVANCE
        )
        assert score < 0.5

    def test_each_feedback_item_is_folded_once(self, world):
        wrangler = make_wrangler(world)
        result = wrangler.run()
        record = result.table[0]
        wrangler.apply_feedback(
            [
                ValueFeedback(entity=record.rid, attribute="price",
                              is_correct=False),
                RelevanceFeedback(source_name=next(iter(world.source_rows)),
                                  is_relevant=True),
            ]
        )
        wrangler.run()
        beliefs = wrangler.registry.reliability_scores()
        annotations = len(wrangler.working.annotations)
        # Nothing new to propagate: no source is re-observed and no
        # relevance judgment is annotated a second time.
        wrangler.apply_feedback([])
        assert wrangler.registry.reliability_scores() == beliefs
        assert len(wrangler.working.annotations) == annotations


class TestPlanner:
    def test_planner_rationale_covers_decisions(self, world):
        wrangler = make_wrangler(world)
        plan = AutonomicPlanner().plan(
            wrangler.user, wrangler.data, wrangler.registry,
            wrangler.working.annotations,
        )
        text = plan.explain()
        assert "sources" in text
        assert "threshold" in text
        assert "fusing" in text

    def test_no_ontology_drops_semantic_channel(self, world):
        user = UserContext.precision_first("u", TARGET_SCHEMA)
        wrangler = Wrangler(user, DataContext("empty"), today=TODAY)
        for name, rows in world.source_rows.items():
            wrangler.add_source(MemorySource(name, rows))
        plan = AutonomicPlanner().plan(
            user, wrangler.data, wrangler.registry,
            wrangler.working.annotations,
        )
        assert "ontology" not in plan.matcher_channels

    def test_timeliness_context_fuses_recent(self, world):
        user = UserContext(
            "fresh",
            TARGET_SCHEMA,
            weights={
                Dimension.TIMELINESS: 0.6,
                Dimension.ACCURACY: 0.2,
                Dimension.COST: 0.2,
            },
        )
        wrangler = make_wrangler(world, user)
        plan = AutonomicPlanner().plan(
            user, wrangler.data, wrangler.registry,
            wrangler.working.annotations,
        )
        assert plan.fusion_strategy == "recent"
