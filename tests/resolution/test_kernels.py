"""Property suite for the vectorised comparison kernels.

The kernels' whole contract is *soundness*: for every measure in
``_MEASURES``, the compiled upper bound must dominate the scalar measure
on arbitrary data — unicode, digits, missing cells, NaN-adjacent floats,
unparseable coordinates.  Hypothesis hunts for a value pair where the
scalar loop would match but the kernel would prune; any such pair is a
wrong *decision*, not a slow one, so these properties gate harder than
any benchmark.  The suite also pins the fallback contract (anything but
the plain comparator/rule classes compiles to ``None``).
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.records import Table
from repro.obs import MetricsRegistry
from repro.resolution.blocking import full_pairs
from repro.resolution.comparison import (
    _MEASURES,
    FieldComparator,
    RecordComparator,
)
from repro.resolution.er import EntityResolver
from repro.resolution.kernels import (
    _BATCH,
    PRUNE_MARGIN,
    CompiledComparator,
    _TokenRows,
    compile_comparator,
)
from repro.resolution.rules import LearnedRule, ThresholdRule

#: Deliberately nasty text: repeated tokens, digit-bearing tokens mixed
#: with words, short tokens, unicode, leading/trailing space.
text_values = st.text(
    alphabet="ab1 2é .x", min_size=0, max_size=24
)

numeric_values = st.one_of(
    st.integers(-1000, 1000),
    st.floats(
        min_value=-1e6, max_value=1e6,
        allow_nan=False, allow_infinity=False,
    ),
    st.just("not a number"),
)

geo_values = st.one_of(
    st.builds(
        lambda lat, lon: f"{lat:.4f},{lon:.4f}",
        st.floats(min_value=-90, max_value=90,
                  allow_nan=False, allow_infinity=False),
        st.floats(min_value=-180, max_value=180,
                  allow_nan=False, allow_infinity=False),
    ),
    st.just("somewhere"),
)


def column_strategy(measure):
    base = {
        "numeric": numeric_values,
        "geo": geo_values,
    }.get(measure, text_values)
    return st.lists(
        st.one_of(st.none(), base), min_size=2, max_size=8
    )


def single_field_table(measure, values):
    rows = [{"v": value} for value in values]
    return Table.from_rows("t", rows)


def compiled_for(measure, table, threshold=0.5):
    comparator = RecordComparator(
        fields=(FieldComparator("v", measure=measure),)
    )
    compiled = compile_comparator(
        comparator, ThresholdRule(threshold), table
    )
    assert compiled is not None
    return comparator, compiled


#: Measures whose kernel computes the *exact* score, not just a bound.
EXACT_MEASURES = frozenset({"jaccard", "dice", "exact", "numeric"})


class TestBoundSoundness:
    """Kernel upper bound >= scalar measure, for every measure, always."""

    @pytest.mark.parametrize("measure", sorted(_MEASURES))
    def test_bound_dominates_scalar(self, measure):
        @given(column_strategy(measure))
        @settings(max_examples=40, deadline=None)
        def property_case(values):
            table = single_field_table(measure, values)
            comparator, compiled = compiled_for(measure, table)
            pairs = full_pairs(table)
            if pairs.shape[0] == 0:
                return
            bounds = compiled.upper_bounds(pairs)
            for k, (i, j) in enumerate(pairs):
                scalar = comparator.similarity(
                    table.records[i], table.records[j]
                )
                assert bounds[k] + PRUNE_MARGIN >= scalar, (
                    f"{measure}: bound {bounds[k]} < scalar {scalar} "
                    f"for {values[i]!r} vs {values[j]!r}"
                )
                if measure in EXACT_MEASURES:
                    assert bounds[k] == pytest.approx(scalar, abs=1e-9)

        property_case()

    @pytest.mark.parametrize("measure", sorted(_MEASURES))
    def test_survivors_keep_every_scalar_match(self, measure):
        @given(
            column_strategy(measure),
            st.floats(min_value=0.0, max_value=1.0),
        )
        @settings(max_examples=25, deadline=None)
        def property_case(values, threshold):
            table = single_field_table(measure, values)
            comparator, compiled = compiled_for(
                measure, table, threshold=threshold
            )
            pairs = full_pairs(table)
            survivors = {
                (int(i), int(j)) for i, j in compiled.survivors(pairs)
            }
            for i, j in pairs:
                scalar = comparator.similarity(
                    table.records[i], table.records[j]
                )
                if scalar >= threshold:
                    assert (int(i), int(j)) in survivors, (
                        f"{measure}: pruned a scalar match "
                        f"({values[i]!r}, {values[j]!r}, "
                        f"sim={scalar}, threshold={threshold})"
                    )

        property_case()


class TestResolverParity:
    """Kernels on vs off: byte-identical resolution output."""

    @given(
        st.lists(
            st.fixed_dictionaries(
                {"name": st.one_of(st.none(), text_values),
                 "price": st.one_of(st.none(), numeric_values)}
            ),
            min_size=2,
            max_size=10,
        ),
        st.floats(min_value=0.1, max_value=1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_resolve_is_identical(self, rows, threshold):
        table = Table.from_rows("t", rows)
        comparator = RecordComparator(
            fields=(
                FieldComparator("name", measure="jaro"),
                FieldComparator("name", measure="jaccard", weight=0.5),
                FieldComparator("price", measure="numeric", weight=0.25),
            )
        )

        def run(use_kernels):
            return EntityResolver(
                comparator=comparator,
                rule=ThresholdRule(threshold),
                small_table_cutoff=10**9,
                use_kernels=use_kernels,
            ).resolve(table)

        scalar, vectorised = run(False), run(True)
        assert vectorised.matched_pairs == scalar.matched_pairs
        assert [c.cluster_id for c in vectorised.clusters] == [
            c.cluster_id for c in scalar.clusters
        ]
        assert [
            [r.rid for r in c.records] for c in vectorised.clusters
        ] == [[r.rid for r in c.records] for c in scalar.clusters]
        assert vectorised.compared == scalar.compared
        assert vectorised.candidate_pairs == scalar.candidate_pairs


class TestCompileEligibility:
    """Anything but the plain classes falls back to the scalar loop."""

    @pytest.fixture
    def table(self):
        return Table.from_rows(
            "t", [{"name": "alpha one"}, {"name": "alpha two"}]
        )

    def test_plain_comparator_compiles(self, table):
        comparator = RecordComparator(
            fields=(FieldComparator("name", measure="jaccard"),)
        )
        compiled = compile_comparator(
            comparator, ThresholdRule(0.9), table
        )
        assert isinstance(compiled, CompiledComparator)

    def test_learned_rule_falls_back(self, table):
        comparator = RecordComparator(
            fields=(FieldComparator("name", measure="jaccard"),)
        )
        rule = LearnedRule(n_fields=1)
        metrics = MetricsRegistry()
        assert compile_comparator(
            comparator, rule, table, metrics=metrics
        ) is None
        assert metrics.counter("kernels.fallback").value == 1

    def test_subclassed_comparator_falls_back(self, table):
        class Custom(RecordComparator):
            def similarity(self, left, right):
                return 1.0

        comparator = Custom(
            fields=(FieldComparator("name", measure="jaccard"),)
        )
        assert compile_comparator(
            comparator, ThresholdRule(0.9), table
        ) is None

    def test_subclassed_field_falls_back(self, table):
        class CountingField(FieldComparator):
            pass

        comparator = RecordComparator(
            fields=(CountingField("name", measure="jaccard"),)
        )
        assert compile_comparator(
            comparator, ThresholdRule(0.9), table
        ) is None

    def test_resolver_counts_prune_metrics(self, table):
        rows = [
            {"name": "acme laptop 15"},
            {"name": "acme laptop 15"},
            {"name": "zzz completely different"},
        ]
        table = Table.from_rows("t", rows)
        metrics = MetricsRegistry()
        resolver = EntityResolver(
            comparator=RecordComparator(
                fields=(FieldComparator("name", measure="jaccard"),)
            ),
            rule=ThresholdRule(0.95),
            small_table_cutoff=10**9,
            metrics=metrics,
        )
        result = resolver.resolve(table)
        assert metrics.counter("kernels.candidates").value == 3
        assert metrics.counter("kernels.pruned").value == 2
        assert metrics.counter("kernels.survivors").value == 1
        # Pruning is invisible in the result: every candidate counts as
        # compared, exactly as the scalar loop reports it.
        assert result.compared == 3



def oracle_held(left, right):
    """Pure-Python row product with the right row read as binary, as both
    token kernels use it: the left weights on the tokens the right holds."""
    a = left if isinstance(left, Counter) else dict.fromkeys(left, 1)
    b = dict.fromkeys(right, 1)
    return sum(a[t] * b.get(t, 0) for t in a)


@st.composite
def token_rows(draw):
    """Rows over a vocabulary of one to four tokens: frozensets (the
    Jaccard/Dice rows) or Counters (the digit-token rows), empty ones
    included."""
    vocabulary = draw(st.sampled_from(["a", "ab", "abc", "abcd"]))
    tokens = st.sampled_from(vocabulary)
    row = st.one_of(
        st.frozensets(tokens),
        st.dictionaries(tokens, st.integers(1, 4)).map(Counter),
    )
    return draw(st.lists(row, min_size=1, max_size=8))


class TestTokenRowProducts:
    """``_TokenRows.held`` equals the pure-Python oracle exactly."""

    @given(token_rows())
    @settings(max_examples=200, deadline=None)
    def test_every_ordered_pair_matches_the_oracle(self, rows):
        # Every ordered pair: self-pairs and both orders of each pair.
        lefts, rights = (
            index.ravel() for index in np.indices((len(rows), len(rows)))
        )
        expected = [
            oracle_held(rows[left], rows[right])
            for left, right in zip(lefts, rights)
        ]
        held = _TokenRows(rows).held(lefts, rights)
        assert held.tolist() == expected

    def test_a_pair_array_longer_than_a_batch_matches_the_oracle(self):
        rng = np.random.default_rng(2016)
        rows = [
            Counter(rng.choice(list("abcdefgh"), size=rng.integers(0, 6)))
            for __ in range(40)
        ]
        rows[::3] = [frozenset(row) for row in rows[::3]]
        lefts, rights = rng.integers(0, len(rows), size=(2, _BATCH + 7))
        expected = [
            oracle_held(rows[left], rows[right])
            for left, right in zip(lefts, rights)
        ]
        held = _TokenRows(rows).held(lefts, rights)
        assert held.tolist() == expected
