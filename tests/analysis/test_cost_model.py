"""The cost model's primitives: estimates, pair bounds, and the
no-load source-facts extraction."""

import pytest

from repro.analysis.cost.model import (
    DEFAULT_ROWS,
    UNIT_COSTS,
    CardinalityEstimate,
    estimated_pairs,
    source_facts,
)
from repro.resolution.blocking import MAX_BLOCK_SIZE
from repro.resolution.er import SMALL_TABLE_CUTOFF
from repro.sources.memory import MemorySource
from repro.sources.registry import SourceRegistry


class TestCardinalityEstimate:
    def test_seconds_uses_the_stage_unit_cost(self):
        estimate = CardinalityEstimate(rows=10.0, work=1000.0)
        assert estimate.seconds("resolution") == pytest.approx(
            1000.0 * UNIT_COSTS["resolution"]
        )

    def test_unknown_stage_falls_back_to_a_nominal_unit(self):
        estimate = CardinalityEstimate(work=100.0)
        assert estimate.seconds(None) > 0.0
        assert estimate.seconds("no-such-stage") == estimate.seconds(None)

    def test_to_dict_rounds_and_keeps_detail_only_when_set(self):
        bare = CardinalityEstimate(rows=1.234567, work=2.0).to_dict()
        assert bare["rows"] == 1.23
        assert "detail" not in bare
        rich = CardinalityEstimate(detail="union of 3 sources").to_dict()
        assert rich["detail"] == "union of 3 sources"


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

    def registry(self):
        registry = SourceRegistry()
        registry.register(MemorySource("shop", self.ROWS,
                                       cost_per_access=2.5))
        return registry

    def test_cold_source_is_never_loaded_for_a_hint(self):
        # The certifier is a *static* pass: asking a cold source for its
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

    def test_duck_typed_stand_in_with_a_plain_hint_is_honoured(self):
        class Hinted:
            class metadata:
                cost_per_access = 1.0
                kind = "structured"

            def size_hint(self):
                return 42

        class Registry:
            def names(self):
                return ["hinted"]

            def get(self, name):
                return Hinted()

        facts = source_facts(Registry())
        assert facts["hinted"].rows == 42.0

    def test_stand_in_whose_hint_raises_degrades_to_unknown(self):
        class Refusing:
            def size_hint(self):
                raise RuntimeError("not today")

        class Registry:
            def names(self):
                return ["refusing"]

            def get(self, name):
                return Refusing()

        facts = source_facts(Registry())
        assert facts["refusing"].rows is None

    def test_registry_less_call_is_empty(self):
        assert source_facts(SourceRegistry()) == {}

    def test_default_rows_is_the_probe_sample_size(self):
        # The assumed cardinality and the probe sample agree: an
        # unhinted source is modelled as "one probe's worth" of rows.
        assert DEFAULT_ROWS == 25.0
