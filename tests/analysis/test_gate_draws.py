"""The seeded generator of composed plans (``tools/gate_draws.py``).

Each live rule arm keeps the draw that fires it as its test; the retired
arms' properties live beside the rules they replaced
(``test_validator.py``, ``test_typecheck_rules.py``,
``test_cost_checks.py``), over the same ``draws`` fixture.
"""

import pytest

from conftest import DRAWS, gate_draws

#: The first of the 500 tallied draws (``make gate-draws N=500``) on
#: which each live arm fires.  ``CC008`` fires on none: its test is a
#: composed wide world in ``test_cost_checks.py``.
FIRING_DRAWS = {
    "PV006 negative criteria weight": 0,
    "PV007 recency fusion without a date attribute": 14,
    "PV007 master_key without a master table": 2,
    "PV008 floor on a zero-weight dimension": 2,
    "TC001 selected source without a probe schema": 16,
    "TC007 recency attribute no mapping produces": 117,
    "TC008 recency keyed on a non-DATE attribute": 15,
    "TC009 required attribute no mapping produces": 1,
    "CC004 pooled cross-source resolve at scale": 449,
    "CC006 spend under an unbounded budget": 1,
}

LIVE = {f"{arm.rule} {arm.arm}": arm for arm in gate_draws.ARMS if arm.live}


@pytest.mark.parametrize("label", sorted(FIRING_DRAWS))
def test_live_arm_fires_on_its_draw(label):
    outcome = gate_draws.run_draw(FIRING_DRAWS[label])
    assert LIVE[label].fires(outcome), outcome.knobs


def test_every_live_arm_but_cc008_has_a_firing_draw():
    assert set(LIVE) - set(FIRING_DRAWS) == {
        "CC008 constraint discovery dominating repair"
    }


def test_draws_reach_the_branches_the_planner_can_take(draws):
    """Negative raw weights, zero-cost sources under a zero budget,
    recency without a DATE attribute, two or more dead sources (whose
    probe failures pull mean accuracy into the median-override branch)
    and the scale worlds all occur among the tallied draws."""
    knobs = [outcome.knobs for outcome in draws]
    assert any("negative_weight" in k for k in knobs)
    assert any(k.get("free_sources") and k.get("zero_budget") for k in knobs)
    assert any(k.get("dead", 0) >= 2 for k in knobs)
    assert any(outcome.plan.fusion_overrides for outcome in draws)
    assert any(
        outcome.world == "locations" and outcome.plan.fusion_strategy == "recent"
        for outcome in draws
    )
    assert {outcome.world for outcome in draws} == set(gate_draws.WORLDS)


def test_draws_are_seeded():
    first, again = gate_draws.run_draw(7), gate_draws.run_draw(7)
    assert first.knobs == again.knobs
    assert first.plan.sources == again.plan.sources
    assert first.report.diagnostics == again.report.diagnostics


def test_tally_renders_one_row_per_arm(draws):
    table = gate_draws.render(draws).splitlines()
    rows = [line for line in table if line.startswith("| ") and "|---" not in line]
    assert len(rows) == 1 + len(gate_draws.ARMS)
    assert all(f"| {DRAWS} |" in row for row in rows[1:])
