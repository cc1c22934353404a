"""The column-wise strategies and cluster fusion against the per-claim
implementation they replaced, kept here verbatim as the oracle.

Exact ``==`` throughout: a strategy must pick the same value, with the
same confidence to the last bit, the same sorted supporters, and a fused
cell must carry the same provenance.  The claim sets are drawn to hit the
edges — ties, raws that are equal across types (``1``, ``1.0``,
``True``), zero reliabilities and confidences, and a source with two
records in one cluster.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Sequence

import pytest

from repro.fusion.fuse import EntityFuser
from repro.fusion.strategies import STRATEGIES, AttributeClaims, resolve
from repro.model.provenance import Provenance, Step
from repro.model.records import Record
from repro.model.schema import Attribute, DataType, Schema
from repro.model.values import MISSING, Value
from repro.resolution.er import EntityCluster

# -- the oracle: one frozen Candidate per claim -----------------------------


@dataclass(frozen=True)
class Candidate:
    value: Value
    source: str
    reliability: float = 0.5
    recency: float = 0.5


@dataclass(frozen=True)
class FusedChoice:
    value: Value
    confidence: float
    supporters: tuple[str, ...]


def _group_by_raw(candidates):
    groups = defaultdict(list)
    for candidate in candidates:
        groups[candidate.value.raw].append(candidate)
    return dict(groups)


def majority_vote(candidates):
    groups = _group_by_raw(candidates)
    best_raw = max(
        groups,
        key=lambda raw: (
            len(groups[raw]),
            sum(c.reliability for c in groups[raw]),
        ),
    )
    supporters = groups[best_raw]
    return FusedChoice(
        supporters[0].value,
        len(supporters) / len(candidates),
        tuple(sorted(c.source for c in supporters)),
    )


def weighted_vote(candidates):
    groups = _group_by_raw(candidates)
    weights = {
        raw: sum(c.reliability * c.value.confidence for c in group)
        for raw, group in groups.items()
    }
    total = sum(weights.values())
    best_raw = max(weights, key=lambda raw: weights[raw])
    supporters = groups[best_raw]
    confidence = weights[best_raw] / total if total > 0 else 0.0
    return FusedChoice(
        supporters[0].value,
        confidence,
        tuple(sorted(c.source for c in supporters)),
    )


def most_recent(candidates):
    best = max(candidates, key=lambda c: (c.recency, c.reliability))
    agreeing = [c for c in candidates if c.value.raw == best.value.raw]
    return FusedChoice(
        best.value,
        0.5 + 0.5 * best.recency * best.reliability,
        tuple(sorted(c.source for c in agreeing)),
    )


def numeric_median(candidates):
    numeric = []
    for candidate in candidates:
        try:
            numeric.append((float(candidate.value.raw), candidate))
        except (TypeError, ValueError):
            continue
    if not numeric:
        return majority_vote(candidates)
    numeric.sort(key=lambda pair: pair[0])
    total_weight = sum(c.reliability for __, c in numeric)
    cumulative = 0.0
    chosen = numeric[-1][1]
    for number, candidate in numeric:
        cumulative += candidate.reliability
        if cumulative >= total_weight / 2:
            chosen = candidate
            break
    agreeing = [c for c in candidates if c.value.raw == chosen.value.raw]
    return FusedChoice(
        chosen.value,
        len(agreeing) / len(candidates),
        tuple(sorted(c.source for c in agreeing)),
    )


ORACLES = {
    "majority": majority_vote,
    "weighted": weighted_vote,
    "recent": most_recent,
    "median": numeric_median,
}


def oracle_fuse_ordered(fuser: EntityFuser, cluster_id: str, records):
    """The per-claim ``EntityFuser._fuse_ordered``."""
    recencies = fuser._recencies(records)
    cells = {}
    for attribute in fuser.target_schema:
        candidates = [
            Candidate(
                value,
                record.source,
                fuser.reliabilities.get(record.source, 0.5),
                recency,
            )
            for record, recency in zip(records, recencies)
            for value in (record.get(attribute.name),)
            if not value.is_missing
        ]
        if not candidates:
            cells[attribute.name] = MISSING
            continue
        strategy = fuser._strategy_for(attribute.name)
        choice = ORACLES[strategy](candidates)
        supporting = [
            c for c in candidates if c.source in choice.supporters
        ] or list(candidates)
        provenance = Provenance.combine(
            Step.FUSION,
            f"{strategy}:{cluster_id}",
            tuple(c.value.provenance for c in supporting),
        )
        cells[attribute.name] = Value(
            choice.value.raw,
            attribute.dtype,
            min(1.0, choice.confidence),
            provenance,
        )
    truth_ids = [
        record.raw("_truth")
        for record in records
        if record.raw("_truth") is not None
    ]
    if truth_ids:
        cells["_truth"] = Value.of(Counter(truth_ids).most_common(1)[0][0])
    return Record.of(cells, source="fused", rid=cluster_id)


# -- drawing edge-heavy claim sets -------------------------------------------

RAWS = (1, 1.0, True, 2, 2.0, 0, False, "a", "b", 9.5, "9.5", "x")
LEVELS = (0.0, 0.0, 0.25, 0.5, 0.5, 1.0)


def draw_claims(rng: random.Random) -> list[Candidate]:
    """1–7 claims; sources repeat, so one may claim twice."""
    sources = [f"s{i}" for i in range(rng.randint(1, 4))]
    return [
        Candidate(
            Value.of(rng.choice(RAWS), confidence=rng.choice(LEVELS)),
            rng.choice(sources),
            rng.choice(LEVELS + (rng.random(),)),
            rng.choice(LEVELS + (rng.random(),)),
        )
        for __ in range(rng.randint(1, 7))
    ]


def columns(candidates: Sequence[Candidate]) -> AttributeClaims:
    return AttributeClaims(
        [c.value for c in candidates],
        [c.source for c in candidates],
        [c.reliability for c in candidates],
        [c.recency for c in candidates],
    )


def same_choice(new, old) -> bool:
    """Equal to the bit: the float compared by ``repr`` too (``-0.0``)."""
    return (
        new.value is old.value
        and repr(new.confidence) == repr(old.confidence)
        and type(new.confidence) is type(old.confidence)
        and new.supporters == old.supporters
    )


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_every_strategy_matches_its_per_claim_oracle(strategy):
    rng = random.Random(f"vote-{strategy}")
    for __ in range(3000):
        candidates = draw_claims(rng)
        assert same_choice(
            resolve(strategy, columns(candidates)),
            ORACLES[strategy](candidates),
        ), candidates


def test_weighted_ties_go_to_the_value_claimed_first():
    candidates = [
        Candidate(Value.of("b"), "s1", 0.5),
        Candidate(Value.of("a"), "s2", 0.5),
    ]
    choice = resolve("weighted", columns(candidates))
    assert choice.value.raw == "b"
    assert same_choice(choice, weighted_vote(candidates))


def test_equal_raws_across_types_vote_together():
    candidates = [
        Candidate(Value.of(1), "s1", 0.3),
        Candidate(Value.of(True), "s2", 0.3),
        Candidate(Value.of(1.0), "s3", 0.3),
        Candidate(Value.of("1"), "s4", 0.8),
    ]
    choice = resolve("weighted", columns(candidates))
    assert choice.value.raw == 1 and type(choice.value.raw) is int
    assert choice.supporters == ("s1", "s2", "s3")
    assert same_choice(choice, weighted_vote(candidates))


def test_all_zero_reliabilities_give_zero_confidence():
    candidates = [
        Candidate(Value.of(5), "s1", 0.0),
        Candidate(Value.of(6), "s2", 0.0),
    ]
    choice = resolve("weighted", columns(candidates))
    assert choice.confidence == 0.0
    assert same_choice(choice, weighted_vote(candidates))


# -- whole clusters ----------------------------------------------------------

SCHEMA = Schema(
    (
        Attribute("product", DataType.STRING),
        Attribute("price", DataType.FLOAT),
        Attribute("flag", DataType.BOOLEAN),
    )
)


def draw_cluster(rng: random.Random, index: int) -> EntityCluster:
    """Records of 1–3 sources, one source often twice, cells often
    missing or blank."""
    sources = [f"src-{i}" for i in range(rng.randint(1, 3))]
    records = []
    for position in range(rng.randint(1, 6)):
        cells = {
            "product": rng.choice(("anvil", "Anvil", None, "  ", "anvil")),
            "price": rng.choice((1, 1.0, 2.5, None, 2.5, True)),
            "flag": rng.choice((True, 1, False, None)),
            "_truth": rng.choice((None, "t1", "t2")),
        }
        records.append(
            Record.of(
                {k: v for k, v in cells.items() if v is not None
                 or rng.random() < 0.5},
                source=rng.choice(sources),
                rid=f"r{index}-{position}",
                confidence=rng.choice((0.0, 0.5, 1.0)),
            )
        )
    return EntityCluster(f"c{index}", records)


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_fused_records_match_the_per_claim_fusion(strategy):
    rng = random.Random(f"fuse-{strategy}")
    clusters = [draw_cluster(rng, index) for index in range(400)]
    fuser = EntityFuser(
        SCHEMA,
        reliabilities={"src-0": 0.9, "src-1": 0.0, "src-2": 0.5},
        default_strategy=strategy,
        precedence=("src-2", "src-0"),
    )
    fused = fuser.fuse(clusters)
    for cluster, record in zip(clusters, fused):
        expected = oracle_fuse_ordered(
            fuser, cluster.cluster_id, fuser._ordered(cluster.records)
        )
        assert record.cells == expected.cells
        assert [repr(v.confidence) for v in record.cells.values()] == [
            repr(v.confidence) for v in expected.cells.values()
        ]
