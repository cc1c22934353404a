"""The ER threshold refit as a table of cases — no ``Wrangler`` needed.

``refit_threshold`` is the ladder duplicate feedback climbs (too few
labels → keep the prior; mixed → best-F1 fit; one-sided → clamp past the
extreme pair), ``refit_rule`` scores the labelled pairs with the same
function the resolver decides candidate pairs with.
"""

import pytest

from repro.model.records import Table
from repro.resolution import er
from repro.resolution.comparison import FieldComparator, RecordComparator
from repro.resolution.er import EntityResolver, refit_rule
from repro.resolution.rules import ThresholdRule, fit_threshold, refit_threshold


class TestRefitThreshold:
    @pytest.mark.parametrize("labels", [[], [True], [True, False, True]])
    def test_fewer_than_four_labels_keep_the_prior(self, labels):
        similarities = [0.9, 0.2, 0.7][: len(labels)]
        assert refit_threshold(0.83, similarities, labels) == ThresholdRule(0.83)

    def test_mixed_labels_equal_fit_threshold(self):
        similarities = [0.95, 0.9, 0.6, 0.4, 0.85]
        labels = [True, True, False, False, False]
        rule = refit_threshold(0.8, similarities, labels)
        assert rule == fit_threshold(similarities, labels)
        assert rule == ThresholdRule(0.9)

    @pytest.mark.parametrize(
        "prior, similarities, expected",
        [
            (0.8, [0.6, 0.85, 0.7, 0.3], 0.86),    # just above the highest
            (0.8, [0.6, 0.995, 0.7, 0.3], 0.99),   # capped
            (0.9, [0.6, 0.7, 0.5, 0.3], 0.9),      # never below the prior
        ],
    )
    def test_all_negative_lands_above_the_highest_rejected_pair(
        self, prior, similarities, expected
    ):
        rule = refit_threshold(prior, similarities, [False] * 4)
        assert rule.threshold == pytest.approx(expected)

    @pytest.mark.parametrize(
        "prior, similarities, expected",
        [
            (0.9, [0.95, 0.72, 0.8, 0.99], 0.71),  # just below the lowest
            (0.9, [0.95, 0.3, 0.8, 0.99], 0.5),    # floored
            (0.6, [0.95, 0.72, 0.8, 0.99], 0.6),   # never above the prior
        ],
    )
    def test_all_positive_relaxes_to_the_lowest_confirmed_pair(
        self, prior, similarities, expected
    ):
        rule = refit_threshold(prior, similarities, [True] * 4)
        assert rule.threshold == pytest.approx(expected)


ROWS = [
    {"name": "Acme Laptop Pro 15"},
    {"name": "Acme Laptop Pro 15"},
    {"name": "Acme Lptop Pro 15"},
    {"name": "Globex Camera Z"},
    {"name": "Globex Camera Zoom"},
    {"name": "Initech Monitor Q"},
]
COMPARATOR = RecordComparator((FieldComparator("name", measure="jaro"),))


@pytest.fixture
def table():
    return Table.from_rows("offers", ROWS)


class TestRefitRule:
    def test_no_labels_is_the_prior(self, table):
        assert refit_rule(0.87, COMPARATOR, table, {}) == ThresholdRule(0.87)

    def test_labelled_pairs_are_scored_on_the_resolvers_scale(self, table):
        rids = [record.rid for record in table]
        labels = {
            (rids[0], rids[1]): True,
            (rids[0], rids[2]): True,
            (rids[3], rids[4]): True,
            (rids[0], rids[5]): False,
            (rids[0], "gone"): False,     # a record the table no longer has
        }
        scored = [
            COMPARATOR.similarity(table[a], table[b])
            for a, b in [(0, 1), (0, 2), (3, 4), (0, 5)]
        ]
        rule = refit_rule(0.8, COMPARATOR, table, labels)
        assert rule == refit_threshold(0.8, scored, [True, True, True, False])

    def test_a_label_outside_the_table_does_not_count_towards_four(self, table):
        rids = [record.rid for record in table]
        labels = {(rids[i], "gone"): False for i in range(3)}
        labels[(rids[0], rids[5])] = False
        assert refit_rule(0.8, COMPARATOR, table, labels) == ThresholdRule(0.8)

    def test_labelled_and_candidate_pairs_share_one_scoring_function(
        self, table, monkeypatch
    ):
        scored = []
        real = er._score_pair

        def spy(comparator, left, right):
            scored.append((left.rid, right.rid))
            return real(comparator, left, right)

        monkeypatch.setattr(er, "_score_pair", spy)
        rids = [record.rid for record in table]
        refit_rule(0.8, COMPARATOR, table, {(rids[0], rids[1]): True})
        assert scored == [(rids[0], rids[1])]
        del scored[:]
        result = EntityResolver(
            comparator=COMPARATOR, rule=ThresholdRule(0.8), use_kernels=False
        ).resolve(table)
        assert len(scored) == result.compared == 15
