"""Equivalence oracle for the per-resolve score tables.

``old_monge_elkan`` is the implementation this repo shipped before the
token-pair table, kept verbatim as a test-only reference: every record
pair re-aligns every token against every token, both directions, with
the digit test re-run per call.  The properties assert that the
table-backed path (``NameScores.score``, and ``monge_elkan`` on top of
it) returns the ``==``-identical float — not ``approx`` — on digit
tokens, stopword-only names, empty strings and repeated tokens, warm,
cold or read through from an earlier resolve's tables, in either
argument order; and that a whole ``resolve()`` off a ``ScoringContext``
decides exactly what the oracle comparator decides.
"""

import importlib.util
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching.similarity import (
    _STOPWORDS,
    _TOKEN_RE,
    NameScores,
    jaro_winkler,
    monge_elkan,
)
from repro.model.records import Table
from repro.resolution.comparison import (
    _MEASURES,
    FieldComparator,
    RecordComparator,
    ScoringContext,
    profiled_comparator,
)
from repro.resolution.er import EntityResolver
from repro.resolution.rules import ThresholdRule

QUICKSTART = Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"

# -- the parent commit's implementation, verbatim ---------------------------


def old_name_tokens(text: str) -> tuple[str, ...]:
    tokens = _TOKEN_RE.findall(text.lower())
    kept = [t for t in tokens if t not in _STOPWORDS]
    return tuple(kept or tokens)


def old_monge_elkan(a: str, b: str, combine: str = "mean") -> float:
    tokens_a = old_name_tokens(a)
    tokens_b = old_name_tokens(b)
    if not tokens_a and not tokens_b:
        return 1.0
    if not tokens_a or not tokens_b:
        return 0.0

    def token_sim(left: str, right: str) -> float:
        # Tokens carrying digits are codes (model numbers, house numbers,
        # postcode fragments): two different codes are different things,
        # however many characters they share.
        if any(c.isdigit() for c in left) or any(c.isdigit() for c in right):
            return 1.0 if left == right else 0.0
        score = jaro_winkler(left, right)
        # A word either IS the other word (with typos — scores near 1) or
        # it is a different word; mid-range Jaro between distinct words
        # ("engineer"/"scientist" ≈ 0.55) is noise, not half a match.
        return score if score >= 0.85 else 0.3 * score

    def directed(src: Sequence[str], dst: Sequence[str]) -> float:
        return sum(
            max(token_sim(token, other) for other in dst) for token in src
        ) / len(src)

    forward = directed(tokens_a, tokens_b)
    backward = directed(tokens_b, tokens_a)
    if combine == "min":
        return min(forward, backward)
    return (forward + backward) / 2.0


# -- properties ---------------------------------------------------------------

#: Names over a tiny vocabulary, so token pairs repeat within and across
#: names: words, near-words (typos), codes, stopwords, and punctuation /
#: case noise around them.
_WORDS = (
    "acme", "acne", "amce", "laptop", "lptop", "pro", "max", "the", "of",
    "co", "15", "15a", "x200", "é", "a1b",
)
names = st.one_of(
    st.lists(
        st.one_of(st.sampled_from(_WORDS), st.sampled_from((" ", "-", "The", "PRO"))),
        min_size=0, max_size=7,
    ).map(" ".join),
    st.text(alphabet="ab1 2é .xTHEof", min_size=0, max_size=20),
)


class TestTableBackedMongeElkanEqualsTheOracle:
    @given(st.lists(st.tuples(names, names), min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_shared_tables_return_the_identical_float(self, pairs):
        shared = NameScores()
        for combine in ("mean", "min"):
            # Twice through, and mirrored: a table filled by earlier
            # pairs (or by the other direction) answers like a cold one.
            for a, b in pairs + [(b, a) for a, b in pairs] + pairs:
                expected = old_monge_elkan(a, b, combine)
                assert shared.score(a, b, combine) == expected
                assert monge_elkan(a, b, combine) == expected

    @given(
        st.lists(st.tuples(names, names), min_size=1, max_size=8),
        st.lists(st.tuples(names, names), min_size=1, max_size=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_tables_read_through_return_the_identical_float(
        self, earlier, later
    ):
        previous = NameScores()
        for a, b in earlier:
            previous.score(a, b)
        carried = NameScores(previous)
        for combine in ("mean", "min"):
            for a, b in later + earlier + [(b, a) for a, b in earlier]:
                assert carried.score(a, b, combine) == (
                    old_monge_elkan(a, b, combine)
                )

    @pytest.mark.parametrize("a, b", [
        ("", ""),
        ("", "Globex Camera Z"),
        ("the of", "The Of Co"),               # stopwords only: kept
        ("The Acme Co", "Acme"),
        ("pro pro pro 15", "pro 15 15"),      # repeated tokens
        ("Acme Laptop Pro 15", "Acme Lptop Pro 15"),
        ("Acme X200", "Acme X2000"),          # codes only match themselves
        ("QA Analyst", "Junior QA Analyst"),
    ])
    def test_named_cases(self, a, b):
        shared = NameScores()
        for combine in ("mean", "min"):
            for left, right in ((a, b), (b, a), (a, b)):
                assert shared.score(left, right, combine) == (
                    old_monge_elkan(left, right, combine)
                )

    def test_an_unknown_combine_is_refused(self):
        # It used to mean "mean", silently.
        with pytest.raises(ValueError, match="typo"):
            monge_elkan("Acme TV", "Acme TV", combine="typo")
        with pytest.raises(ValueError):
            NameScores().score("", "", combine="max")


class OracleField(FieldComparator):
    """A field comparator scoring the Monge–Elkan measures with the
    oracle.  Being a subclass it is neither tabled nor kernel-compiled:
    the resolver scores every candidate pair through ``compare``."""

    def compare(self, left, right):
        value_left = left.get(self.attribute)
        value_right = right.get(self.attribute)
        if value_left.is_missing or value_right.is_missing:
            return None
        a, b = value_left.raw, value_right.raw
        if self.measure == "tokens":
            return old_monge_elkan(str(a), str(b))
        if self.measure == "tokens_strict":
            return old_monge_elkan(str(a), str(b), combine="min")
        return _MEASURES[self.measure](a, b)


@pytest.fixture(scope="module")
def quickstart_run():
    """The quickstart pipeline's translated table, plan and comparator."""
    spec = importlib.util.spec_from_file_location("quickstart", QUICKSTART)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    wrangler = module.build_wrangler()
    result = wrangler.run()
    translated = wrangler.relations()["translated"]
    comparator = profiled_comparator(
        wrangler.user.target_schema, translated,
        attributes=list(result.plan.er_attributes) or None,
    )
    return translated, result.plan.er_threshold, comparator


class TestWholeResolveEqualsTheOracle:
    def test_matched_pairs_confidences_and_cluster_ids(self, quickstart_run):
        translated, threshold, comparator = quickstart_run
        assert {"tokens", "tokens_strict"} & {
            field.measure for field in comparator.fields
        }
        oracle = RecordComparator(tuple(
            OracleField(field.attribute, field.measure, field.weight)
            for field in comparator.fields
        ))
        rule = ThresholdRule(threshold)
        expected = EntityResolver(comparator=oracle, rule=rule).resolve(translated)
        assert expected.matched_pairs             # a fixture that decides something
        for use_kernels in (True, False):
            result = EntityResolver(
                comparator=comparator, rule=rule, use_kernels=use_kernels
            ).resolve(translated)
            # dict equality: same keys, ==-identical confidences
            assert result.matched_pairs == expected.matched_pairs
            assert [c.cluster_id for c in result.clusters] == [
                c.cluster_id for c in expected.clusters
            ]

    def test_every_vector_equals_the_comparators_own(self, quickstart_run):
        translated, __, comparator = quickstart_run
        scores = ScoringContext(comparator)
        records = translated.records[:60]
        for i, left in enumerate(records):
            for right in records[i + 1:]:
                # warm tables in both orders
                assert scores.vector(left, right) == comparator.vector(left, right)
                assert scores.vector(right, left) == comparator.vector(right, left)


class TestValuePairKeysAreTheStrFormsTheMeasureSees:
    def test_equal_hashing_operands_do_not_answer_for_each_other(self):
        # 1, 1.0 and True hash alike and compare equal, but ``exact``
        # compares "1", "1.0" and "true"; -0.0 == 0.0 but "-0.0" != "0.0".
        rows = [{"v": 1}, {"v": 1.0}, {"v": True}, {"v": 1},
                {"v": 0.0}, {"v": -0.0}, {"v": "1"}]
        table = Table.from_rows("t", rows)
        for measure in ("exact", "jaro", "jaccard", "tokens"):
            comparator = RecordComparator((FieldComparator("v", measure),))
            scores = ScoringContext(comparator)
            for left in table.records:
                for right in table.records:
                    assert scores.vector(left, right) == (
                        comparator.vector(left, right)
                    ), (measure, left.raw("v"), right.raw("v"))

    def test_a_carried_pair_answers_only_for_its_own_measure(self):
        # A context built on the previous resolve's reads its tables
        # through; the same value pair under another measure is another
        # entry.
        rows = [{"v": "acme pro 15"}, {"v": "Acme Pro"}, {"v": "pro acme"},
                {"v": "acme pro 15a"}, {"v": 15}]
        table = Table.from_rows("t", rows)
        measures = ("exact", "jaro", "jaccard", "tokens", "tokens_strict")
        for before in measures:
            previous = ScoringContext(
                RecordComparator((FieldComparator("v", before),))
            )
            for left in table.records:
                for right in table.records:
                    previous.vector(left, right)
            for after in measures:
                comparator = RecordComparator((FieldComparator("v", after),))
                scores = ScoringContext(comparator, previous=previous)
                for left in table.records:
                    for right in table.records:
                        assert scores.vector(left, right) == (
                            comparator.vector(left, right)
                        ), (before, after)

    def test_numeric_and_geo_are_not_tabled(self):
        # They read their operands' types, not their str() forms.
        rows = [{"n": 1, "g": (1.0, 2.0)}, {"n": True, "g": "(1.0, 2.0)"},
                {"n": 1.0, "g": "1.0, 2.0"}]
        table = Table.from_rows("t", rows)
        comparator = RecordComparator((
            FieldComparator("n", "numeric"), FieldComparator("g", "geo"),
        ))
        scores = ScoringContext(comparator)
        for left in table.records:
            for right in table.records:
                assert scores.vector(left, right) == (
                    comparator.vector(left, right)
                )
