"""The selector's gain loop against the dict-and-``max`` loop it replaced,
and the selection memo.

The oracle below is the replaced ``SourceSelector.gain`` verbatim: a
``votes`` dict per sample, ``randint(1, 3)`` for a wrong value, the
winner by ``max(..., key=...)``.  The fast loop must consume the very
same ``random.Random(seed)`` stream and break ties the same way, so the
comparison is exact ``==`` over profile lists drawn at the edges of the
model (coverage and accuracy of 0, 0.05, 0.5 and 1) under several seeds.
"""

from __future__ import annotations

import random

import pytest

from repro.selection.source_selection import SourceProfile, SourceSelector


def oracle_gain(selector: SourceSelector, profiles) -> float:
    if not profiles:
        return 0.0
    rng = random.Random(selector.seed)
    correct = 0
    for __ in range(selector.n_samples):
        votes: dict[object, float] = {}
        for profile in profiles:
            if rng.random() >= profile.coverage:
                continue
            weight = max(profile.accuracy, 0.05)
            if rng.random() < profile.accuracy:
                claim: object = "truth"
            else:
                claim = f"wrong-{rng.randint(1, 3)}"
            votes[claim] = votes.get(claim, 0.0) + weight
        if votes and max(votes, key=lambda v: votes[v]) == "truth":
            correct += 1
    expected_fraction = correct / selector.n_samples
    return expected_fraction * selector.n_items * selector.gain_per_item


EDGES = (0.0, 0.05, 0.5, 1.0)


def draw_profiles(rng: random.Random) -> list[SourceProfile]:
    """1–7 profiles, most of their rates at the edges: equal accuracies
    make equal vote weights, so ties between the truth and a wrong value
    are common."""
    def rate() -> float:
        return rng.choice(EDGES) if rng.random() < 0.8 else rng.random()

    return [
        SourceProfile(f"s{i}", rate(), rate(), rng.choice((0.0, 1.0, 2.5)))
        for i in range(rng.randint(1, 7))
    ]


@pytest.mark.parametrize("seed", [17, 88, 2016])
def test_gain_equals_the_dict_loop_exactly(seed):
    rng = random.Random(seed * 7919)
    selector = SourceSelector(n_items=150, gain_per_item=1.7, n_samples=60,
                              seed=seed)
    for __ in range(700):
        profiles = draw_profiles(rng)
        assert selector.gain(profiles) == oracle_gain(selector, profiles), (
            profiles
        )


def test_gain_equals_the_dict_loop_at_the_default_sample_count():
    rng = random.Random(5)
    selector = SourceSelector()
    for __ in range(40):
        profiles = draw_profiles(rng)
        assert selector.gain(profiles) == oracle_gain(selector, profiles)


class CountingSelector(SourceSelector):
    def __init__(self, **options) -> None:
        super().__init__(**options)
        self.gains = 0

    def gain(self, profiles):
        self.gains += 1
        return super().gain(profiles)


PROFILES = [
    SourceProfile("a", 0.9, 0.9, 2.0),
    SourceProfile("b", 0.6, 0.7, 1.0),
    SourceProfile("c", 0.5, 0.5, 3.0),
]


class TestSelectionMemo:
    def test_the_same_belief_state_is_served_without_a_gain(self):
        selector = CountingSelector(n_items=60)
        first = selector.select(PROFILES, budget=5.0)
        asked = selector.gains
        again = selector.select(list(PROFILES), budget=5.0)
        assert asked > 0 and selector.gains == asked
        assert again == first and again is not first

    def test_a_served_result_is_a_copy(self):
        selector = CountingSelector(n_items=60)
        first = selector.select(PROFILES)
        expected = (list(first.selected), list(first.rejected))
        first.selected.append("tampered")
        first.rejected.clear()
        again = selector.select(PROFILES)
        again.steps.clear()
        third = selector.select(PROFILES)
        assert (again.selected, again.rejected) == expected
        assert third.steps == selector.select(PROFILES).steps != []

    @pytest.mark.parametrize(
        "change",
        [
            lambda s: setattr(s, "gain_per_item", 2.0),
            lambda s: setattr(s, "n_items", 61),
            lambda s: setattr(s, "n_samples", 200),
            lambda s: setattr(s, "seed", 18),
        ],
    )
    def test_a_moved_gain_setting_recomputes(self, change):
        selector = CountingSelector(n_items=60)
        selector.select(PROFILES)
        asked = selector.gains
        change(selector)
        selector.select(PROFILES)
        assert selector.gains > asked

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: s.select(PROFILES[::-1]),
            lambda s: s.select(PROFILES[:2]),
            lambda s: s.select(
                [PROFILES[0], SourceProfile("b", 0.6, 0.71, 1.0), PROFILES[2]]
            ),
            lambda s: s.select(PROFILES, budget=4.0),
            lambda s: s.select(PROFILES, force_all=True),
            lambda s: s.select(PROFILES, patience=2),
        ],
    )
    def test_a_moved_argument_recomputes(self, call):
        selector = CountingSelector(n_items=60)
        selector.select(PROFILES)
        asked = selector.gains
        call(selector)
        assert selector.gains > asked

    def test_only_the_last_belief_state_is_kept(self):
        selector = CountingSelector(n_items=60)
        selector.select(PROFILES)
        selector.select(PROFILES[:2])
        asked = selector.gains
        selector.select(PROFILES)
        assert selector.gains > asked
