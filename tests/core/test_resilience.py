"""Failure-injection tests: broken sources must not break the pipeline."""

import pytest

from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.core.wrangler import Wrangler
from repro.datagen.ontologies import product_ontology
from repro.datagen.products import TARGET_SCHEMA, generate_world
from repro.errors import SourceError
from repro.model.annotations import Dimension
from repro.model.records import Table
from repro.obs import Telemetry
from repro.resilience import ChaosSource, FaultPlan, RetryPolicy
from repro.sources.base import SourceMetadata, StructuredSource
from repro.sources.memory import MemorySource


class BrokenSource(StructuredSource):
    """A source that is down: every load raises."""

    def __init__(self, name: str, fail_probes: bool = True) -> None:
        super().__init__(SourceMetadata(name, cost_per_access=0.5))
        self.fail_probes = fail_probes
        self._loads = 0

    def _load(self) -> Table:
        self._loads += 1
        raise SourceError(f"{self.name} is down (load #{self._loads})")


class FlakySource(StructuredSource):
    """Fails the first ``failures`` loads, then recovers."""

    def __init__(self, name: str, rows, failures: int = 1) -> None:
        super().__init__(SourceMetadata(name, cost_per_access=0.5))
        self._rows = rows
        self._remaining_failures = failures

    def _load(self) -> Table:
        if self._remaining_failures > 0:
            self._remaining_failures -= 1
            raise SourceError(f"{self.name} transient failure")
        return Table.from_rows(self.name, self._rows, source=self.name)


def build_wrangler(world, extra_sources):
    user = UserContext.completeness_first("r", TARGET_SCHEMA)
    data = DataContext("p").with_ontology(product_ontology())
    wrangler = Wrangler(user, data)
    for name, rows in world.source_rows.items():
        wrangler.add_source(MemorySource(name, rows))
    for source in extra_sources:
        wrangler.add_source(source)
    return wrangler


@pytest.fixture(scope="module")
def world():
    return generate_world(n_products=20, n_sources=2, seed=999)


class TestBrokenSources:
    def test_pipeline_survives_a_dead_source(self, world):
        wrangler = build_wrangler(world, [BrokenSource("dead")])
        result = wrangler.run()
        assert len(result.table) > 0
        # the failure is recorded, visible, and scored
        assert wrangler.working.get("failure", "dead") is not None
        assert wrangler.working.annotations.score(
            "source:dead", Dimension.ACCURACY
        ) < 0.2
        assert wrangler.registry.reliability("dead").mean < 0.6

    def test_all_sources_dead_yields_empty_result(self):
        user = UserContext.completeness_first("r", TARGET_SCHEMA)
        wrangler = Wrangler(user, DataContext("p"))
        wrangler.add_source(BrokenSource("dead-1"))
        wrangler.add_source(BrokenSource("dead-2"))
        result = wrangler.run()
        assert len(result.table) == 0

    def test_flaky_source_recovers_on_refresh(self, world):
        # fails during the probe, works from the first real fetch on
        flaky = FlakySource(
            "flaky",
            [
                {"product": "Acme Thing 1", "brand": "Acme",
                 "category": "thing", "price": "$10.00",
                 "updated": "2016-03-15"}
            ],
            failures=1,
        )
        wrangler = build_wrangler(world, [flaky])
        first = wrangler.run()
        # probe failed, but acquisition (2nd load) succeeded or the probe
        # failure at most cost us this source's rows this round
        wrangler.refresh_source("flaky")
        second = wrangler.run()
        raw = wrangler.working.get("table", "raw/flaky")
        assert raw is not None
        assert len(second.table) >= len(first.table)


class TestResiliencePolicy:
    """``Wrangler.resilience`` guards the accesses, not the sources."""

    def chaotic(self, world, telemetry):
        name = sorted(world.source_rows)[0]
        return ChaosSource(
            MemorySource(name, world.source_rows[name]),
            FaultPlan(fail_first=2),
            clock=telemetry.clock,
        )

    def test_the_registry_keeps_the_callers_source(self, world):
        telemetry = Telemetry.manual()
        wrangler = Wrangler(
            UserContext.completeness_first("r", TARGET_SCHEMA),
            DataContext("p"),
            telemetry=telemetry,
        )
        early = self.chaotic(world, telemetry)
        wrangler.add_source(early).resilience(RetryPolicy())
        late = MemorySource("late", [{"product": "x"}])
        wrangler.add_source(late)
        assert wrangler.registry.get(early.name) is early
        assert wrangler.registry.get("late") is late

    def test_a_later_policy_covers_sources_already_registered(self, world):
        # Regression: each source used to keep the policy in force when
        # it was registered, so raising max_attempts after registration
        # left the flaky source failing on its first attempt.
        telemetry = Telemetry.manual()
        wrangler = Wrangler(
            UserContext.completeness_first("r", TARGET_SCHEMA),
            DataContext("p"),
            telemetry=telemetry,
        )
        source = self.chaotic(world, telemetry)
        wrangler.add_source(source)
        wrangler.resilience(RetryPolicy(max_attempts=1))
        wrangler.resilience(RetryPolicy(max_attempts=3))
        wrangler.flow.pull("probe")
        assert wrangler.degradation.disposition(source.name).disposition == (
            "recovered"
        )
        result = wrangler.run()
        entry = result.degradation[source.name]
        assert entry["survived"] is True
        assert [(a["op"], a["outcome"]) for a in entry["attempts"]] == [
            ("probe", "transient-failure"),
            ("probe", "transient-failure"),
            ("probe", "success"),
            ("fetch", "success"),
        ]
