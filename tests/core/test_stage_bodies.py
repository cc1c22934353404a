"""Each Figure-1 layer on its own: stage bodies without a ``run()``.

A stage body computes one dataflow node from an ``inputs`` dict (the
values of the dependencies ``pipeline_shape`` declares for it), so every
layer can be driven with hand-built inputs; the probe runs the same
extract / match / assess helpers on a sample; and one extraction verdict
dirties one source's acquisition, not every document source's.
"""

import ast
import datetime
import gc
import weakref
from pathlib import Path

import pytest

import repro.core.wrangler as wrangler_module
import repro.matching.similarity as similarity
import repro.resolution.er as er

from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.core.planner import WranglePlan
from repro.core.wrangler import Wrangler
from repro.datagen.htmlgen import render_site
from repro.datagen.products import TARGET_SCHEMA
from repro.feedback.types import (
    DuplicateFeedback,
    ExtractionFeedback,
    RelevanceFeedback,
    ValueFeedback,
)
from repro.mapping.mapping import Mapping
from repro.model.annotations import Dimension
from repro.model.provenance import Step
from repro.model.records import Table
from repro.model.schema import Attribute, DataType, Schema
from repro.resolution.comparison import ScoringContext
from repro.resolution.rules import ThresholdRule
from repro.sources.memory import MemoryDocumentSource, MemorySource

SCHEMA = Schema(
    (
        Attribute("product", DataType.STRING, required=True),
        Attribute("price", DataType.CURRENCY),
    )
)

ROWS = [
    {"product": "anvil", "cost": "$12.00"},
    {"product": "rope", "cost": "$3.50"},
]

PLAN = WranglePlan(
    sources=["shop"],
    matcher_channels=("name", "instance"),
    match_threshold=0.5,
    er_threshold=0.9,
    fusion_strategy="weighted",
)


def make_wrangler():
    user = UserContext("u", SCHEMA, weights={Dimension.ACCURACY: 1.0})
    wrangler = Wrangler(user, DataContext())
    wrangler.add_source(MemorySource("shop", ROWS))
    return wrangler


def raw_table():
    return Table.from_rows("shop", ROWS, source="shop").infer_schema()


class TestPerSourceStages:
    def test_acquire_fetches_a_planned_source_and_files_the_raw_table(self):
        wrangler = make_wrangler()
        table = wrangler._stage_acquire("shop", {"plan": PLAN})
        assert [r.raw("product") for r in table] == ["anvil", "rope"]
        assert wrangler.working.get("table", "raw/shop") is table
        assert wrangler.registry.get("shop").accesses == 1.0

    def test_acquire_skips_a_source_the_plan_left_out(self):
        wrangler = make_wrangler()
        unplanned = WranglePlan(
            sources=[],
            matcher_channels=PLAN.matcher_channels,
            match_threshold=0.5,
            er_threshold=0.9,
            fusion_strategy="weighted",
        )
        table = wrangler._stage_acquire("shop", {"plan": unplanned})
        assert len(table) == 0
        assert wrangler.registry.get("shop").accesses == 0

    def test_match_mapping_mapped_quality_chain_on_hand_built_inputs(self):
        wrangler = make_wrangler()
        inputs = {"plan": PLAN, "acquire:shop": raw_table()}
        inputs["match:shop"] = wrangler._stage_match("shop", inputs)
        pairs = {
            (c.source_attribute, c.target_attribute)
            for c in inputs["match:shop"]
        }
        assert ("product", "product") in pairs
        assert wrangler.working.get("match", "shop") == inputs["match:shop"]

        inputs["mapping:shop"] = wrangler._stage_mapping("shop", inputs)
        assert isinstance(inputs["mapping:shop"], Mapping)
        assert wrangler.working.get("mapping", "shop") is inputs["mapping:shop"]

        inputs["mapped:shop"] = wrangler._stage_mapped("shop", inputs)
        assert inputs["mapped:shop"].schema == SCHEMA
        assert [r.raw("product") for r in inputs["mapped:shop"]] == [
            "anvil", "rope",
        ]

        report = wrangler._stage_quality("shop", inputs)
        assert wrangler.working.get("report", "source/shop") is report
        assert 0.0 <= report.scores[Dimension.COMPLETENESS] <= 1.0


class TestGlobalStages:
    def test_select_translate_resolve_fuse_repair_on_hand_built_inputs(self):
        wrangler = make_wrangler()
        inputs = {"plan": PLAN, "acquire:shop": raw_table()}
        for kind in ("match", "mapping", "mapped", "quality"):
            body = getattr(wrangler, f"_stage_{kind}")
            inputs[f"{kind}:shop"] = body("shop", inputs)

        inputs["select"] = wrangler._stage_select(inputs)
        assert [s.mapping for s in inputs["select"]] == [inputs["mapping:shop"]]
        inputs["rank"] = wrangler._stage_rank(inputs)
        assert inputs["rank"] == ("shop",)

        inputs["translate"] = wrangler._stage_translate(inputs)
        assert len(inputs["translate"]) == 2

        # No duplicate labels: the rule is the plan's threshold.
        inputs["refit"] = wrangler._stage_refit(inputs)
        assert inputs["refit"] == ThresholdRule(PLAN.er_threshold)

        inputs["resolve"] = wrangler._stage_resolve(inputs)
        assert len(inputs["resolve"].clusters) == 2

        inputs["fuse"] = wrangler._stage_fuse(inputs)
        assert sorted(r.raw("product") for r in inputs["fuse"]) == [
            "anvil", "rope",
        ]
        # ``run()`` files the wrangled table, not fuse or repair: either
        # may be cut off while the other re-runs.
        assert wrangler.working.get("table", "wrangled") is None

        # No constraints declared or discovered: nothing to repair.
        assert wrangler._stage_repair(inputs) is None

    def test_rank_orders_fusion_ties_but_not_the_translated_rows(self):
        """``translate`` emits the selected rows in registry order, so a
        verdict that only re-ranks the selection leaves it — and ER —
        as it was; the rank reaches fusion, whose ties it breaks."""
        user = UserContext("u", SCHEMA, weights={Dimension.ACCURACY: 1.0})
        wrangler = Wrangler(user, DataContext())
        wrangler.add_source(MemorySource("shop", [
            {"product": "anvil", "price": "$12.00"},
            {"product": "rope", "price": "$3.50"},
        ]))
        wrangler.add_source(MemorySource("mart", [
            {"product": "anvil", "price": "$11.00"},
        ]))
        plan = WranglePlan(
            sources=["shop", "mart"], matcher_channels=("name", "instance"),
            match_threshold=0.5, er_threshold=0.9, fusion_strategy="weighted",
        )
        inputs = {"plan": plan}
        for name in ("shop", "mart"):
            inputs[f"acquire:{name}"] = wrangler._stage_acquire(name, inputs)
            for kind in ("match", "mapping", "mapped"):
                body = getattr(wrangler, f"_stage_{kind}")
                inputs[f"{kind}:{name}"] = body(name, inputs)

        def anvil_price(rank):
            inputs["rank"] = rank
            translated = wrangler._stage_translate(inputs)
            inputs["translate"] = translated
            inputs["refit"] = wrangler._stage_refit(inputs)
            inputs["resolve"] = wrangler._stage_resolve(inputs)
            fused = wrangler._stage_fuse(inputs)
            (anvil,) = [r for r in fused if r.raw("product") == "anvil"]
            return [r.source for r in translated], anvil.raw("price")

        assert anvil_price(("shop", "mart")) == (["shop", "shop", "mart"], 12.0)
        assert anvil_price(("mart", "shop")) == (["shop", "shop", "mart"], 11.0)

    def test_plan_stage_gates_what_it_composes(self, monkeypatch):
        gated = []
        gate = wrangler_module.typecheck.run_preflight
        monkeypatch.setattr(
            wrangler_module.typecheck, "run_preflight",
            lambda **kwargs: gated.append(kwargs["plan"]) or gate(**kwargs),
        )
        wrangler = make_wrangler()
        wrangler._stage_probe({})
        plan = wrangler._stage_plan({"probe": {}})
        assert plan.sources == ["shop"]
        assert gated == [plan]


class TestProbeRunsTheSameStagesOnASample:
    def test_filed_probe_artifacts_equal_the_shared_helpers_output(self):
        probing, reference = make_wrangler(), make_wrangler()
        reports = probing._stage_probe({})

        sample = reference._extract(reference.registry.get("shop"), "probe")
        correspondences = reference._correspond(sample)
        mapping = Mapping.from_correspondences("shop", SCHEMA, correspondences)

        assert probing.working.get("schema", "probe/shop") == sample.schema
        filed = probing.working.get("mapping", "probe/shop")
        assert filed.source_name == mapping.source_name
        assert filed.attribute_maps == mapping.attribute_maps
        assert filed.confidence == mapping.confidence
        assessed = reference._assess(mapping.apply(sample), "source:shop")
        assert reports["shop"].scores == assessed.scores
        # A probe is a fraction of an access, for either wrangler.
        assert probing.registry.get("shop").accesses == pytest.approx(
            reference.registry.get("shop").accesses
        )

    def test_bootstrap_matcher_is_the_plan_matcher_without_a_plan(self):
        wrangler = make_wrangler()
        table = raw_table()
        everything_at_half = WranglePlan(
            sources=["shop"],
            matcher_channels=("name", "instance", "ontology", "feedback"),
            match_threshold=0.5,
            er_threshold=0.9,
            fusion_strategy="weighted",
        )

        def facts(correspondences):
            return [
                (c.source_attribute, c.target_attribute, c.confidence)
                for c in correspondences
            ]

        assert facts(wrangler._correspond(table)) == facts(
            wrangler._correspond(table, everything_at_half)
        )


def site_source(name, products):
    listings = [
        {
            "product": product,
            "brand": "acme",
            "price": f"${price:.2f}",
            "url": f"http://{name}/{index}",
            "updated": "2016-03-15",
        }
        for index, (product, price) in enumerate(products)
    ]
    return MemoryDocumentSource(name, render_site(name, listings).pages)


class TestExtractionFeedbackInvalidatesPrecisely:
    def make(self):
        user = UserContext.precision_first("u", TARGET_SCHEMA)
        wrangler = Wrangler(
            user, DataContext("products"), today=datetime.date(2016, 3, 15)
        )
        wrangler.add_source(
            site_source("north", [("anvil", 12.0), ("rope", 3.5), ("saw", 9.0)])
        )
        wrangler.add_source(
            site_source("south", [("anvil", 12.5), ("nail", 0.1), ("axe", 20.0)])
        )
        wrangler.run()
        return wrangler

    def test_one_verdict_dirties_one_acquisition(self):
        wrangler = self.make()
        before = {
            name: wrangler.registry.get(name).accesses
            for name in ("north", "south")
        }
        judged = wrangler.working.get("wrapper", "south").wrapper_id
        wrangler.apply_feedback(
            [ExtractionFeedback(wrapper_id=judged, attribute="price",
                                is_correct=False)]
        )
        flow = wrangler.flow
        dirty = [
            node for node in flow.nodes()
            if node.startswith("acquire:") and not flow.is_clean(node)
        ]
        assert dirty == ["acquire:south"]
        wrangler.run()
        grown = {
            name for name in before
            if wrangler.registry.get(name).accesses > before[name]
        }
        assert grown == {"south"}

    def test_a_verdict_on_an_unknown_wrapper_falls_back_to_every_site(self):
        wrangler = self.make()
        wrangler.apply_feedback(
            [ExtractionFeedback(wrapper_id="wrapper-nobody-filed")]
        )
        flow = wrangler.flow
        dirty = {
            node for node in flow.nodes()
            if node.startswith("acquire:") and not flow.is_clean(node)
        }
        assert dirty == {"acquire:north", "acquire:south"}


class TestBeliefWritersForceTheirReaders:
    """``select`` and ``fuse`` read source annotations and trust outside
    their ``inputs``.  A quality node re-run to an equal report still
    appends its scores, so it forces them rather than letting early
    cutoff keep them on the beliefs they last read."""

    def test_a_rerun_quality_node_forces_select_and_fuse(self):
        wrangler = make_wrangler()
        wrangler.run()
        runs = {n: wrangler.flow.runs(n) for n in ("select", "fuse")}
        wrangler.flow.invalidate("quality:shop")
        wrangler.run()
        assert wrangler.flow.node_stats()["translate"]["cutoffs"] == 1
        assert {n: wrangler.flow.runs(n) for n in runs} == {
            n: r + 1 for n, r in runs.items()
        }


class TestStageBodiesComposeLayersDecide:
    """The resolve / fuse / feedback / run bodies call into the layer
    that owns the algorithm; none of its arithmetic lives in
    ``core/wrangler.py``.  A PR that puts it back fails here."""

    LAYER_NAMES = (
        "fit_threshold", "ThresholdRule", "AttributeClaims", "SourceSelector",
        "Counter", "Step", "Deadline", "CircuitBreaker",
    )

    def test_the_wrangler_module_binds_no_layer_internals(self):
        bound = vars(wrangler_module)
        assert [name for name in self.LAYER_NAMES if name in bound] == []

    def test_exactly_one_function_level_import_remains(self):
        tree = ast.parse(Path(wrangler_module.__file__).read_text())
        nested = [
            alias.name
            for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(function)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        ]
        # bench/spans.py patches it by module attribute, so it is looked
        # up at call time.
        assert nested == ["acquire_durable"]


class TestRefitAndResolveShareOneScoringContextPerTick:
    """A tick that re-resolves builds one :class:`ScoringContext`:
    ``_stage_refit`` scores the labelled pairs off it, ``_stage_resolve``
    the candidates.  The next tick's context reads through to it, so it
    lives until the next resolve and no longer."""

    def test_one_context_per_tick_is_shared_and_collected_after_the_next_resolve(
        self, monkeypatch
    ):
        built, scored, aligned = [], [], []
        real_init, real_score = ScoringContext.__init__, er._score_pair
        real_jaro = similarity.jaro

        def init(self, comparator, previous=None):
            built.append(weakref.ref(self))
            real_init(self, comparator, previous)

        def score(scores, left, right):
            which = [ref() for ref in built].index(scores)
            scored.append((which, left.rid, right.rid))
            return real_score(scores, left, right)

        def jaro(a, b):
            aligned.append((a, b))
            return real_jaro(a, b)

        monkeypatch.setattr(ScoringContext, "__init__", init)
        monkeypatch.setattr(er, "_score_pair", score)
        monkeypatch.setattr(similarity, "jaro", jaro)

        wrangler = make_wrangler()
        inputs = {"plan": PLAN, "acquire:shop": raw_table()}
        for kind in ("match", "mapping", "mapped", "quality"):
            inputs[f"{kind}:shop"] = getattr(wrangler, f"_stage_{kind}")(
                "shop", inputs
            )
        inputs["select"] = wrangler._stage_select(inputs)
        inputs["rank"] = wrangler._stage_rank(inputs)

        def tick():
            # A re-run translate: an equal table, but a new object.
            inputs["translate"] = wrangler._stage_translate(inputs)
            inputs["refit"] = wrangler._stage_refit(inputs)
            result = wrangler._stage_resolve(inputs)
            assert len(result.clusters) == 2

        anvil, rope = (
            record.rid for record in wrangler._stage_translate(inputs)
        )
        wrangler.feedback.add(
            DuplicateFeedback(rid_a=anvil, rid_b=rope, is_duplicate=False)
        )
        tick()
        assert len(built) == 1
        # the labelled pair, then the one candidate pair, off one context
        assert scored == [(0, anvil, rope), (0, anvil, rope)]
        assert aligned

        del scored[:], aligned[:]
        tick()
        assert len(built) == 2
        assert scored == [(1, anvil, rope), (1, anvil, rope)]
        assert aligned == []   # every score read through to the first tick's
        gc.collect()
        assert built[0]() is None
        assert built[1]() is wrangler._resolved_scores


class TestValueFeedbackBindsAcrossReResolves:
    """``DIRTIES[ValueFeedback]`` is ``("fuse", "select")``; a verdict
    that leaves the selection where it was is cut off at ``translate``
    and does not re-resolve.  A correction still survives a re-resolve,
    because entity ids are content-derived (``stable_cluster_id``), not
    because resolve is left alone."""

    def make(self):
        # Completeness-leaning, so the plan keeps both sources whatever
        # the verdict does to their reliabilities: membership is stable.
        user = UserContext("u", SCHEMA, weights={
            Dimension.ACCURACY: 0.5, Dimension.COMPLETENESS: 0.5,
        })
        wrangler = Wrangler(user, DataContext())
        wrangler.add_source(MemorySource("shop", [
            {"product": "anvil", "price": "$12.00"},
            {"product": "rope", "price": "$3.50"},
        ]))
        wrangler.add_source(MemorySource("mart", [
            {"product": "anvil", "price": "$12.00"},
            {"product": "saw", "price": "$8.00"},
        ]))
        return wrangler

    def corrected(self, result, entity):
        (record,) = [r for r in result.table if r.rid == entity]
        cell = record["price"]
        return (cell.raw, cell.provenance.step, cell.provenance.ref)

    def test_a_correction_survives_its_own_tick_and_an_unrelated_one(self):
        wrangler = self.make()
        first = wrangler.run()
        anvil = next(r for r in first.table if r.raw("product") == "anvil")
        assert anvil.raw("price") == 12.0

        wrangler.apply_feedback([ValueFeedback(
            entity=anvil.rid, attribute="price",
            is_correct=False, correction=11.0,
        )])
        resolves = wrangler.flow.runs("resolve")
        second = wrangler.run()
        assert wrangler.flow.runs("resolve") == resolves   # cut off
        assert wrangler.flow.node_stats()["resolve"]["cutoffs"] == 1
        assert [r.rid for r in second.table] == [r.rid for r in first.table]
        expected = (11.0, Step.FEEDBACK, "user-correction")
        assert self.corrected(second, anvil.rid) == expected

        wrangler.apply_feedback(
            [RelevanceFeedback(source_name="mart", is_relevant=True)]
        )
        wrangler.flow.invalidate("resolve")
        third = wrangler.run()
        assert wrangler.flow.runs("resolve") == resolves + 1   # re-resolved
        assert [r.rid for r in third.table] == [r.rid for r in first.table]
        assert self.corrected(third, anvil.rid) == expected
