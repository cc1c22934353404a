"""Cost-check soundness: the numbers the ``CC`` checks read are *upper
bounds* on what the pipeline actually does.

A check that under-estimates is worse than none — it stays silent on
the plans that then blow up at runtime.  So over a generated world the
post-probe bounds must cover the observed row counts, comparison counts
and access spend of a real run.
"""

import datetime

import pytest

from repro.analysis.cost.rules import (
    estimated_pairs,
    planned_rows,
    planned_spend,
    source_facts,
)
from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.core.wrangler import Wrangler
from repro.datagen.ontologies import product_ontology
from repro.datagen.products import TARGET_SCHEMA, generate_world
from repro.sources.memory import MemorySource

TODAY = datetime.date(2016, 3, 15)


@pytest.fixture(scope="module")
def world():
    return generate_world(n_products=30, n_sources=4, seed=77)


@pytest.fixture(scope="module")
def executed(world):
    """One wrangler, gated after its probe, then actually run; with the
    source facts and the pooled row bound the gate's checks read."""
    user = UserContext.precision_first(
        "soundness", TARGET_SCHEMA, budget=60.0
    )
    data = DataContext("products").with_ontology(product_ontology())
    data.add_master("catalog", world.ground_truth)
    wrangler = Wrangler(
        user, data, master_key="catalog", join_attribute="product",
        today=TODAY,
    )
    for name, rows in world.source_rows.items():
        wrangler.add_source(
            MemorySource(name, rows,
                         cost_per_access=world.specs[name].cost)
        )
    wrangler.preflight()  # probes and plans the run below executes
    facts = source_facts(wrangler.registry)
    result = wrangler.run()
    plan = wrangler.flow.value("plan")
    translated = wrangler.working.get("table", "translated")
    return wrangler, plan, facts, result, translated


class TestEstimatesBoundReality:
    def test_translate_rows_bound_the_translated_table(self, executed):
        _, plan, facts, _, translated = executed
        assert all(facts[name].rows is not None for name in plan.sources)
        assert planned_rows(plan, facts) >= len(translated)

    def test_acquire_rows_match_the_probed_hints(self, executed, world):
        _, plan, facts, _, _ = executed
        for name in plan.sources:
            assert facts[name].rows == len(world.source_rows[name])

    def test_pair_estimate_bounds_actual_comparisons(self, executed):
        _, plan, facts, result, translated = executed
        bound, _ = estimated_pairs(float(len(translated)))
        assert result.resolution.compared <= bound
        # And the bound CC004 reads already covers it.
        pooled, _ = estimated_pairs(planned_rows(plan, facts))
        assert pooled >= result.resolution.compared

    def test_access_estimate_bounds_the_ledgered_spend(self, executed):
        wrangler, plan, facts, _, _ = executed
        # The registry's accounting uses the same fractional probe
        # charging as CC006's spend, so the static total must cover what
        # the run actually spent.
        spend = planned_spend(plan, facts)
        observed = wrangler.registry.total_cost()
        assert observed > 0.0
        assert spend >= observed - 1e-9

    def test_fused_rows_bound_the_output_table(self, executed):
        _, plan, facts, result, _ = executed
        # The rows CC004 pools: fusion shrinks toward distinct entities,
        # so the pooled rows bound the fused cardinality from above.
        assert planned_rows(plan, facts) >= len(result.table)


class TestBoundTightness:
    def test_pair_bound_is_not_vacuous(self, executed):
        # The blocking-aware bound must beat the quadratic worst case,
        # or CC004 would warn about every pooled resolve.
        _, _, _, result, translated = executed
        rows = float(len(translated))
        blocked, _ = estimated_pairs(rows)
        full = rows * (rows - 1.0) / 2.0
        assert blocked < full
        assert result.resolution.compared < full
