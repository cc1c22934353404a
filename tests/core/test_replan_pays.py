"""The replan-profit check as a table of cases — no ``Wrangler`` needed.

``AutonomicPlanner.replan_pays`` answers one question for
``apply_feedback``: do the shifted beliefs make the fresh plan's source
set worth re-acquiring for?  Profit is selector gain minus access cost;
the fresh plan must beat ``1.1 x current + 1.0``.
"""

import pytest

from repro.core.planner import AutonomicPlanner, WranglePlan
from repro.model.annotations import AnnotationStore
from repro.selection.source_selection import SourceSelector
from repro.sources.memory import MemorySource
from repro.sources.registry import SourceRegistry


class TabledSelector(SourceSelector):
    """A selector whose gain is looked up by source set."""

    def __init__(self, gains):
        super().__init__()
        self.gains = {frozenset(names): gain for names, gain in gains.items()}
        self.asked = []

    def gain(self, profiles):
        names = frozenset(profile.name for profile in profiles)
        self.asked.append(names)
        return self.gains[names]


def plan(*sources):
    return WranglePlan(
        sources=list(sources),
        matcher_channels=("name",),
        match_threshold=0.5,
        er_threshold=0.8,
        fusion_strategy="weighted",
    )


@pytest.fixture
def registry():
    registry = SourceRegistry()
    for name in ("a", "b", "c"):
        registry.register(
            MemorySource(name, [{"product": "x"}], cost_per_access=1.0)
        )
    return registry


def test_equal_source_sets_never_pay_and_never_ask_the_gain_model(registry):
    selector = TabledSelector({})
    planner = AutonomicPlanner(selector)
    assert not planner.replan_pays(
        plan("a", "b"), plan("b", "a"), registry, AnnotationStore()
    )
    assert selector.asked == []


@pytest.mark.parametrize(
    "fresh_gain, pays",
    [
        (12.9, False),   # profit 11.9 against 1.1 x 10 + 1.0: inside
        (13.0, False),   # profit 12.0: still not strictly beyond it
        (13.1, True),    # profit 12.1: outside the hysteresis
    ],
)
def test_a_different_source_set_pays_only_beyond_the_hysteresis(
    registry, fresh_gain, pays
):
    # One unit of access cost each: current profit is 11 - 1 = 10.
    selector = TabledSelector({("a",): 11.0, ("b",): fresh_gain})
    planner = AutonomicPlanner(selector)
    assert planner.replan_pays(
        plan("a"), plan("b"), registry, AnnotationStore()
    ) is pays


def test_cost_counts_against_the_larger_set(registry):
    # Three sources gain 16 but cost 3: profit 13 > 1.1 x 10 + 1.0.
    selector = TabledSelector({("a",): 11.0, ("a", "b", "c"): 16.0})
    planner = AutonomicPlanner(selector)
    assert planner.replan_pays(
        plan("a"), plan("a", "b", "c"), registry, AnnotationStore()
    )
    selector.gains[frozenset("abc")] = 14.9      # profit 11.9
    assert not planner.replan_pays(
        plan("a"), plan("a", "b", "c"), registry, AnnotationStore()
    )


def test_a_source_that_left_the_registry_is_not_counted(registry):
    selector = TabledSelector({("a",): 11.0, ("b",): 20.0})
    planner = AutonomicPlanner(selector)
    assert planner.replan_pays(
        plan("a", "gone"), plan("b"), registry, AnnotationStore()
    )
    assert selector.asked == [frozenset("b"), frozenset("a")]
