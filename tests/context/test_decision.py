"""Tests for multi-criteria decision making."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.context.decision import Alternative, rank, weighted_score
from repro.errors import ContextError
from repro.model.annotations import Dimension

ACC, COMP, COST = Dimension.ACCURACY, Dimension.COMPLETENESS, Dimension.COST


def alt(key, acc, comp, cost=0.5):
    return Alternative(key, {ACC: acc, COMP: comp, COST: cost})


class TestWeightedScore:
    def test_simple_average(self):
        a = alt("a", 1.0, 0.0)
        assert weighted_score(a, {ACC: 1.0, COMP: 1.0}) == pytest.approx(0.5)

    def test_weights_change_winner(self):
        accurate = alt("accurate", 0.9, 0.2)
        complete = alt("complete", 0.3, 0.95)
        acc_first = {ACC: 0.8, COMP: 0.2}
        comp_first = {ACC: 0.2, COMP: 0.8}
        assert rank([accurate, complete], acc_first)[0][0].key == "accurate"
        assert rank([accurate, complete], comp_first)[0][0].key == "complete"

    def test_missing_dimension_uses_default(self):
        a = Alternative("a", {ACC: 1.0})
        assert weighted_score(a, {ACC: 0.5, COMP: 0.5}) == pytest.approx(0.75)

    def test_empty_weights_raise(self):
        with pytest.raises(ContextError):
            weighted_score(alt("a", 1, 1), {})

    def test_zero_weights_raise(self):
        with pytest.raises(ContextError):
            weighted_score(alt("a", 1, 1), {ACC: 0.0})

    @given(
        st.floats(0, 1), st.floats(0, 1),
        st.floats(0.01, 1), st.floats(0.01, 1),
    )
    def test_property_score_in_unit_interval(self, a, c, wa, wc):
        score = weighted_score(alt("x", a, c), {ACC: wa, COMP: wc})
        assert 0.0 <= score <= 1.0

