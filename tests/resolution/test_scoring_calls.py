"""Call-count guards for the scalar re-decide (machine-independent).

One ``resolve()`` used to push every surviving pair's title through
``monge_elkan`` from scratch: every token against every token, both
directions, per record pair — 1,578 pairs → 31,615 ``jaro`` calls over
under 3,000 distinct ordered token pairs on the quickstart-sized
workload.  These tests pin the fix by counting calls, not seconds: one
``jaro`` per distinct ordered non-digit token pair per resolve, and
nothing carried from one resolve to the next.  (One tokenisation per
distinct title is pinned next to the older tokenisation guards, in
``test_hot_path.py::TestTokenisationMemoised``.)
"""

import pytest

import repro.matching.similarity as similarity
import repro.resolution.comparison as comparison
import repro.resolution.er as er
import repro.resolution.kernels as kernels
from repro.datagen import generate_world
from repro.model.records import Table
from repro.resolution.comparison import (
    FieldComparator,
    RecordComparator,
    ScoringContext,
)
from repro.resolution.er import EntityResolver
from repro.resolution.rules import ThresholdRule

COMPARATOR = RecordComparator((FieldComparator("title", measure="tokens"),))


@pytest.fixture(scope="module")
def titles():
    """Product titles as six retailers list them: duplicates, typos and
    a small shared vocabulary, in one column."""
    world = generate_world(n_products=60, n_sources=6, seed=2016)
    rows = []
    for name, source_rows in sorted(world.source_rows.items()):
        column = world.renames[name]["product"]
        rows.extend(
            {"title": row[column]} for row in source_rows if row.get(column)
        )
    assert len(rows) > 100
    return Table.from_rows("titles", rows)


@pytest.fixture
def jaro_calls(monkeypatch):
    """Every ``(a, b)`` handed to ``jaro`` while the test runs."""
    calls = []
    real = similarity.jaro

    def spy(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(similarity, "jaro", spy)
    return calls


@pytest.fixture
def scored_pairs(monkeypatch):
    """Every ``(left, right)`` record pair handed to ``_score_pair``."""
    pairs = []
    real = er._score_pair

    def spy(scores, left, right):
        pairs.append((left, right))
        return real(scores, left, right)

    monkeypatch.setattr(er, "_score_pair", spy)
    return pairs


def _resolve(table):
    return EntityResolver(
        comparator=COMPARATOR, rule=ThresholdRule(0.8)
    ).resolve(table)


class TestOneResolveScoresEachThingOnce:
    def test_jaro_runs_once_per_distinct_ordered_word_pair(
        self, titles, jaro_calls, scored_pairs
    ):
        _resolve(titles)
        assert jaro_calls
        assert len(jaro_calls) == len(set(jaro_calls))
        assert not any(
            c.isdigit() for a, b in jaro_calls for c in a + b
        ), "a digit-bearing token is a code: it never reaches jaro"
        # What the unshared measure spends on the same survivors: every
        # word of one title against every word of the other, both ways.
        names = similarity.NameScores()
        unshared = 0
        for left, right in scored_pairs:
            words = [
                [t for t in names.tokens(record.raw("title"))
                 if not names.is_code(t)]
                for record in (left, right)
            ]
            unshared += 2 * sum(
                a != b for a in words[0] for b in words[1]
            )
        assert len(scored_pairs) > 100
        assert len(jaro_calls) < unshared / 4

    def test_the_next_resolve_starts_from_empty_tables(
        self, titles, jaro_calls
    ):
        first = _resolve(titles)
        cold = list(jaro_calls)
        del jaro_calls[:]
        second = _resolve(titles)
        # Nothing the first resolve scored was still around: the second
        # pays for exactly the same pairs again, and decides the same.
        assert jaro_calls == cold
        assert second.matched_pairs == first.matched_pairs

    def test_nothing_module_level_holds_a_table(self, titles):
        _resolve(titles)
        holders = (similarity.NameScores, ScoringContext)
        for module in (similarity, comparison, er, kernels):
            held = [
                name for name, value in vars(module).items()
                if isinstance(value, holders)
            ]
            assert held == [], f"{module.__name__} keeps {held}"
        assert not hasattr(similarity, "_name_token_cache")

    def test_a_shared_context_is_not_scored_twice(self, titles, jaro_calls):
        # What _stage_resolve does: labelled pairs first, candidates after.
        scores = ScoringContext(COMPARATOR)
        rids = [record.rid for record in titles]
        labels = {(rids[i], rids[i + 1]): False for i in range(40)}
        er.refit_rule(0.8, scores, titles, labels)
        assert jaro_calls                    # the labelled pairs filled it
        EntityResolver(comparator=scores, rule=ThresholdRule(0.8)).resolve(titles)
        # ... and the candidates did not pay for those word pairs again.
        assert len(jaro_calls) == len(set(jaro_calls))
