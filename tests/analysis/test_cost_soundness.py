"""Cost-model soundness: the static estimates are *upper bounds* on
what the pipeline actually does.

A certifier that under-estimates is worse than none — it admits plans
that then blow the budget at runtime.  So over a generated world the
post-probe estimates must bound the observed row counts, comparison
counts, and access spend of a real run.
"""

import datetime

import pytest

from repro.analysis.cost.model import estimated_pairs
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
    """One wrangler, certified after its probe, then actually run."""
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
    # Probes, plans, and certifies the plan the run below executes.
    report = wrangler.preflight().cost
    result = wrangler.run()
    translated = wrangler.working.get("table", "translated")
    return wrangler, report, result, translated


class TestEstimatesBoundReality:
    def test_translate_rows_bound_the_translated_table(self, executed):
        _, report, _, translated = executed
        estimate = report.estimates["translate"]
        assert estimate.confidence == "exact"
        assert estimate.rows >= len(translated)

    def test_acquire_rows_match_the_probed_hints(self, executed, world):
        wrangler, report, _, _ = executed
        plan = wrangler.flow.value("plan")
        for name in plan.sources:
            estimate = report.estimates[f"acquire:{name}"]
            assert estimate.rows == len(world.source_rows[name])

    def test_pair_estimate_bounds_actual_comparisons(self, executed):
        _, report, result, translated = executed
        bound, _ = estimated_pairs(float(len(translated)))
        assert result.resolution.compared <= bound
        # And the certified resolve work already reflects that bound.
        assert report.estimates["resolve"].work >= (
            result.resolution.compared
        )

    def test_access_estimate_bounds_the_ledgered_spend(self, executed):
        wrangler, report, _, _ = executed
        # The registry's accounting uses the same fractional probe
        # charging as the certifier's model, so the static total must
        # cover what the run actually spent.
        observed = wrangler.registry.total_cost()
        assert observed > 0.0
        assert report.total_access_cost >= observed - 1e-9

    def test_fused_rows_bound_the_output_table(self, executed):
        _, report, result, _ = executed
        # Fusion shrinks toward distinct entities; the estimate keeps
        # an upper bound on the fused cardinality.
        assert report.estimates["translate"].rows >= len(result.table)


class TestBoundTightness:
    def test_pair_bound_is_not_vacuous(self, executed):
        # The blocking-aware bound must beat the quadratic worst case,
        # or CC004 would warn about every pooled resolve.
        _, _, result, translated = executed
        rows = float(len(translated))
        blocked, _ = estimated_pairs(rows)
        full = rows * (rows - 1.0) / 2.0
        assert blocked < full
        assert result.resolution.compared < full
