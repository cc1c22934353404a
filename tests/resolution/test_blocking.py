"""Blocking-layer tests: pair arrays, MinHash-LSH, and the metrics hooks.

The candidate-pair representation changed from ``set[tuple[int, int]]``
to sorted index arrays; these tests pin the normalisation contract,
token blocking against the old per-block pair loop, MinHash-LSH's
determinism and validation, and the ``blocking.dropped_*`` accounting
for recall silently traded away.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ResolutionError
from repro.model.records import Table
from repro.obs import MetricsRegistry
from repro.resolution.blocking import (
    MAX_BLOCK_SIZE,
    _blocking_tokens,
    _pairs_of_blocks,
    as_pair_set,
    full_pairs,
    minhash_lsh,
    pair_array,
    recall_of,
    token_blocking,
)

names = st.one_of(
    st.none(), st.text(alphabet="abc 123xyz", min_size=0, max_size=15)
)


class TestPairArray:
    def test_orients_dedupes_and_sorts(self):
        pairs = pair_array([(3, 1), (1, 3), (0, 2), (2, 0), (1, 3)])
        assert pairs.tolist() == [[0, 2], [1, 3]]
        assert pairs.dtype == np.intp

    def test_drops_self_pairs(self):
        assert pair_array([(2, 2), (1, 1)]).shape == (0, 2)

    def test_accepts_legacy_sets(self):
        pairs = pair_array({(5, 2), (1, 4)})
        assert pairs.tolist() == [[1, 4], [2, 5]]

    def test_empty_input(self):
        assert pair_array([]).shape == (0, 2)
        assert pair_array(np.empty((0, 2))).shape == (0, 2)

    def test_array_passthrough_still_normalises(self):
        raw = np.asarray([[4, 1], [1, 4], [2, 2]])
        assert pair_array(raw).tolist() == [[1, 4]]

    def test_as_pair_set_round_trip(self):
        original = {(0, 3), (1, 2)}
        assert as_pair_set(pair_array(original)) == original


class TestDroppedMetrics:
    def test_token_blocking_counts_dropped(self):
        rows = [{"name": f"common item {i}"} for i in range(30)]
        metrics = MetricsRegistry()
        pairs = token_blocking(
            Table.from_rows("t", rows), ["name"],
            max_block_size=10, metrics=metrics,
        )
        assert pairs.shape == (0, 2)
        # Two over-sized blocks ("common" and "item"), 30 members each;
        # the numeric suffix tokens are unique so never oversized.
        assert metrics.counter("blocking.dropped_blocks").value == 2
        assert metrics.counter("blocking.dropped_members").value == 60

    def test_token_blocking_without_drops_stays_silent(self):
        rows = [{"name": "alpha beta"}, {"name": "alpha gamma"}]
        metrics = MetricsRegistry()
        token_blocking(Table.from_rows("t", rows), ["name"],
                       metrics=metrics)
        snapshot = metrics.snapshot()
        assert "blocking.dropped_blocks" not in snapshot.get(
            "counters", snapshot
        )

    def test_minhash_counts_dropped_buckets(self):
        rows = [{"name": "identical boilerplate"} for __ in range(6)]
        table = Table.from_rows("t", rows)
        metrics = MetricsRegistry()
        pairs = minhash_lsh(
            table, ["name"], num_perm=4, bands=2,
            max_bucket_size=3, metrics=metrics,
        )
        # Identical token sets → identical signatures → one bucket of 6
        # per band, both over the cap.
        assert pairs.shape == (0, 2)
        assert metrics.counter("blocking.dropped_blocks").value == 2
        assert metrics.counter("blocking.dropped_members").value == 12


class TestMinhashLSH:
    @pytest.fixture
    def table(self):
        rows = [
            {"name": "acme laptop pro fifteen"},
            {"name": "acme laptop pro fifteen"},
            {"name": "globex camera zoom nine"},
            {"name": "globex camera zoom nine"},
            {"name": "initech monitor quad"},
            {"name": "umbrella drone mini"},
        ]
        return Table.from_rows("offers", rows)

    def test_identical_records_always_collide(self, table):
        pairs = as_pair_set(minhash_lsh(table, ["name"]))
        assert (0, 1) in pairs
        assert (2, 3) in pairs

    def test_recall_on_true_pairs(self, table):
        candidates = minhash_lsh(table, ["name"])
        assert recall_of(candidates, [(0, 1), (2, 3)]) == 1.0

    def test_deterministic_across_runs(self, table):
        first = minhash_lsh(table, ["name"])
        second = minhash_lsh(table, ["name"])
        assert np.array_equal(first, second)

    def test_candidates_are_canonical_pair_arrays(self, table):
        pairs = minhash_lsh(table, ["name"])
        assert pairs.dtype == np.intp
        assert np.array_equal(pairs, pair_array(pairs))
        assert np.all(pairs[:, 0] < pairs[:, 1])

    def test_subquadratic_on_distinct_records(self):
        rows = [{"name": f"entity{i} number{i} token{i} extra{i}"}
                for i in range(40)]
        table = Table.from_rows("t", rows)
        pairs = minhash_lsh(table, ["name"])
        # Disjoint token sets: a band collision needs 4 simultaneous
        # 64-bit hash coincidences, so the candidate set is ~empty.
        assert pairs.shape[0] < full_pairs(table).shape[0] / 20

    def test_empty_token_records_generate_no_candidates(self):
        rows = [{"name": ""}, {"name": None}, {"name": "ab"},
                {"name": "real tokens here"}]
        table = Table.from_rows("t", rows)
        assert minhash_lsh(table, ["name"]).shape == (0, 2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_perm": 0},
            {"bands": 0},
            {"num_perm": 8, "bands": 16},
            {"num_perm": 10, "bands": 4},
        ],
    )
    def test_invalid_parameters_raise(self, table, kwargs):
        with pytest.raises(ResolutionError):
            minhash_lsh(table, ["name"], **kwargs)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20, deadline=None)
    def test_any_seed_keeps_identical_token_sets_together(self, seed):
        rows = [
            {"name": "acme laptop pro fifteen"},
            {"name": "acme laptop pro fifteen"},
            {"name": "something else entirely"},
        ]
        table = Table.from_rows("t", rows)
        pairs = as_pair_set(minhash_lsh(table, ["name"], seed=seed))
        # Identical token sets have identical signatures under *every*
        # permutation, so they collide in every band regardless of seed.
        assert (0, 1) in pairs


def per_block_token_blocking(table, attributes, max_block_size, metrics):
    """The per-block pair loop ``token_blocking`` used before it paired
    every block of one size at once: kept here as the oracle."""
    blocks = {}
    for index, record in enumerate(table.records):
        for token in _blocking_tokens(record, attributes, 3):
            blocks.setdefault(token, []).append(index)
    chunks, dropped_blocks, dropped_members = [], 0, 0
    for members in blocks.values():
        if len(members) > max_block_size:
            dropped_blocks += 1
            dropped_members += len(members)
            continue
        members = np.asarray(members, dtype=np.intp)
        if members.shape[0] < 2:
            continue
        i, j = np.triu_indices(members.shape[0], k=1)
        chunks.append(np.column_stack((members[i], members[j])))
    if dropped_blocks:
        metrics.counter("blocking.dropped_blocks").increment(dropped_blocks)
        metrics.counter("blocking.dropped_members").increment(dropped_members)
    if not chunks:
        return np.empty((0, 2), dtype=np.intp)
    return pair_array(np.concatenate(chunks))


class TestTokenBlockingMatchesThePerBlockLoop:
    """One ``triu_indices`` per block size and one 1-D ``np.unique``
    give the per-block loop's array exactly, and the same drop counts."""

    @staticmethod
    def check(table, max_block_size=MAX_BLOCK_SIZE):
        fast, slow = MetricsRegistry(), MetricsRegistry()
        produced = token_blocking(
            table, ["name"], max_block_size=max_block_size, metrics=fast
        )
        expected = per_block_token_blocking(
            table, ["name"], max_block_size, slow
        )
        assert produced.dtype == expected.dtype == np.intp
        assert produced.shape == expected.shape
        assert np.array_equal(produced, expected)
        for name in ("blocking.dropped_blocks", "blocking.dropped_members"):
            assert fast.counter(name).value == slow.counter(name).value
        return produced, fast

    @pytest.mark.parametrize("seed", range(8))
    def test_random_tables(self, seed):
        rng = random.Random(seed)
        vocabulary = [f"word{k}" for k in range(rng.randrange(5, 40))]
        rows = [
            {"name": " ".join(rng.sample(vocabulary, rng.randrange(0, 5)))
             or None}
            for __ in range(rng.randrange(2, 300))
        ]
        self.check(Table.from_rows("t", rows), max_block_size=rng.choice(
            (2, 5, 17, MAX_BLOCK_SIZE)
        ))

    @pytest.mark.parametrize("size, dropped", [
        (MAX_BLOCK_SIZE, 0), (MAX_BLOCK_SIZE + 1, 1),
    ])
    def test_a_block_at_and_just_past_the_cap(self, size, dropped):
        rows = [{"name": f"shared unique{i}"} for i in range(size)]
        pairs, metrics = self.check(Table.from_rows("t", rows))
        assert pairs.shape[0] == (0 if dropped else size * (size - 1) // 2)
        assert metrics.counter("blocking.dropped_blocks").value == dropped

    def test_singleton_tokens_pair_nothing(self):
        rows = [{"name": f"alone{i} solo{i}"} for i in range(20)]
        pairs, __ = self.check(Table.from_rows("t", rows))
        assert pairs.shape == (0, 2)

    def test_an_empty_table(self):
        pairs, __ = self.check(Table.from_rows("t", []))
        assert pairs.shape == (0, 2)

    @given(st.lists(
        st.lists(st.integers(min_value=0, max_value=30), max_size=8),
        max_size=12,
    ))
    @settings(max_examples=60, deadline=None)
    def test_pairs_of_blocks_equals_pairing_each_block(self, blocks):
        blocks = [sorted(set(members)) for members in blocks]
        chunks = [
            [(a, b) for k, a in enumerate(members) for b in members[k + 1:]]
            for members in blocks
        ]
        expected = pair_array([pair for chunk in chunks for pair in chunk])
        assert np.array_equal(_pairs_of_blocks(blocks, 31), expected)


class TestRecallOf:
    def test_accepts_arrays_and_tuples(self):
        pairs = pair_array([(0, 1), (2, 3)])
        assert recall_of(pairs, [(0, 1), (2, 3)]) == 1.0
        assert recall_of(pairs, np.asarray([[0, 1], [4, 5]])) == 0.5

    def test_empty_truth_is_perfect(self):
        assert recall_of(pair_array([]), []) == 1.0
