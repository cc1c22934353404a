"""The cost checks' primitives: pair bounds and the no-load source-facts
extraction."""

import pytest

from repro.analysis.cost.rules import (
    DEFAULT_ROWS,
    estimated_pairs,
    source_facts,
)
from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.core.wrangler import Wrangler
from repro.datagen.products import TARGET_SCHEMA
from repro.resilience import ChaosSource, FaultPlan, RetryPolicy
from repro.resolution.blocking import MAX_BLOCK_SIZE
from repro.resolution.er import SMALL_TABLE_CUTOFF
from repro.sources.memory import MemoryDocumentSource, MemorySource
from repro.sources.registry import SourceRegistry


class TestEstimatedPairs:
    def test_small_table_takes_the_full_pairs_path(self):
        pairs, full = estimated_pairs(20.0)
        assert full
        assert pairs == pytest.approx(20.0 * 19.0 / 2.0)

    def test_token_blocking_caps_pairs_per_row(self):
        pairs, full = estimated_pairs(10_000.0)
        assert not full
        assert pairs == pytest.approx(
            10_000.0 * (MAX_BLOCK_SIZE - 1) / 2.0
        )
        assert pairs < 10_000.0 * 9_999.0 / 2.0

    def test_degenerate_bounds_fall_back_to_full_pairs(self):
        # A block size at or above the table size never binds.
        rows = float(MAX_BLOCK_SIZE)
        assert rows > SMALL_TABLE_CUTOFF
        pairs, full = estimated_pairs(rows)
        assert full
        assert pairs == pytest.approx(rows * (rows - 1.0) / 2.0)

    def test_zero_rows_is_zero_pairs(self):
        pairs, _ = estimated_pairs(0.0)
        assert pairs == 0.0


class TestSourceFacts:
    ROWS = [{"product": f"p{i}", "price": "$1.00"} for i in range(7)]

    def registry(self, *sources):
        registry = SourceRegistry()
        for source in sources or (
            MemorySource("shop", self.ROWS, cost_per_access=2.5),
        ):
            registry.register(source)
        return registry

    def test_cold_source_is_never_loaded_for_a_hint(self):
        # The gate is a *static* pass: asking a cold source for its
        # size would trigger a full physical load behind the resilience
        # ledger's back.  Cold sources must report unknown rows instead.
        registry = self.registry()
        source = registry.get("shop")
        facts = source_facts(registry)
        assert facts["shop"].rows is None
        assert source._size_hint is None  # still cold: nothing loaded

    def test_probed_source_publishes_its_memoised_count(self):
        registry = self.registry()
        registry.get("shop").probe(limit=3)
        facts = source_facts(registry)
        assert facts["shop"].rows == float(len(self.ROWS))
        assert facts["shop"].cost_per_access == 2.5

    def test_guarded_source_publishes_its_probed_count(self):
        # Under resilience the registry holds the caller's own source, so
        # the count the guarded preflight probe memoised is read straight
        # off it — and reading it loads nothing.
        source = ChaosSource(MemorySource("shop", self.ROWS), FaultPlan())
        wrangler = Wrangler(
            UserContext.precision_first("u", TARGET_SCHEMA),
            DataContext("products"),
        )
        wrangler.add_source(source).resilience(RetryPolicy())
        wrangler.preflight()
        assert wrangler.registry.get("shop") is source
        loads = source.loads
        facts = source_facts(wrangler.registry)
        assert facts["shop"].rows == float(len(self.ROWS))
        assert source.loads == loads
        probes = wrangler.degradation.export()["shop"]["attempts"]
        assert [a["op"] for a in probes] == ["probe"]

    def test_stand_in_whose_hint_raises_degrades_to_unknown(self):
        # Only a memoised ``_size_hint`` counts: a stand-in without one
        # is never asked, so a hint that would raise never runs.
        class Refusing:
            class metadata:
                cost_per_access = 1.0

            def size_hint(self):
                raise AssertionError("the static pass asked for a count")

        class Registry:
            def names(self):
                return ["refusing"]

            def get(self, name):
                return Refusing()

        assert source_facts(Registry())["refusing"].rows is None

    def test_document_source_publishes_no_count(self):
        site = MemoryDocumentSource(
            "site", [("http://site/1", "<html><body>anvil</body></html>")]
        )
        site.probe(limit=1)
        facts = source_facts(self.registry(site))
        assert facts["site"].rows is None

    def test_registry_less_call_is_empty(self):
        assert source_facts(SourceRegistry()) == {}

    def test_default_rows_is_the_probe_sample_size(self):
        # The assumed cardinality and the probe sample agree: an
        # unhinted source is modelled as "one probe's worth" of rows.
        assert DEFAULT_ROWS == 25.0
