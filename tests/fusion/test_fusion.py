"""Tests for conflict resolution, truth discovery, and entity fusion."""

import datetime

import pytest

from repro.errors import FusionError
from repro.fusion.fuse import EntityFuser
from repro.fusion.strategies import Candidate, resolve
from repro.fusion.truth import AccuEM, Claim, TruthFinder, majority_baseline
from repro.model.records import Record, Table
from repro.model.schema import Attribute, DataType, Schema
from repro.model.values import Value
from repro.resolution.er import EntityCluster


def cand(raw, source, reliability=0.5, recency=0.5, confidence=1.0):
    return Candidate(Value.of(raw, confidence=confidence), source, reliability, recency)


class TestStrategies:
    def test_majority(self):
        choice = resolve("majority", [cand(1, "a"), cand(1, "b"), cand(2, "c")])
        assert choice.value.raw == 1
        assert choice.confidence == pytest.approx(2 / 3)
        assert choice.supporters == ("a", "b")

    def test_majority_tie_breaks_on_reliability(self):
        choice = resolve(
            "majority",
            [cand(1, "a", 0.2), cand(2, "b", 0.9)],
        )
        assert choice.value.raw == 2

    def test_weighted_vote(self):
        choice = resolve(
            "weighted",
            [cand(1, "a", 0.9), cand(2, "b", 0.2), cand(2, "c", 0.2)],
        )
        assert choice.value.raw == 1

    def test_recent(self):
        choice = resolve(
            "recent",
            [cand(100, "old", 0.9, recency=0.1), cand(105, "new", 0.9, recency=1.0)],
        )
        assert choice.value.raw == 105

    def test_confident(self):
        choice = resolve(
            "confident",
            [cand(1, "a", 0.99, confidence=1.0), cand(2, "b", 0.5, confidence=0.9)],
        )
        assert choice.value.raw == 1

    def test_median_resists_magnitude_errors(self):
        choice = resolve(
            "median",
            [cand(100.0, "a"), cand(102.0, "b"), cand(1000.0, "c")],
        )
        assert choice.value.raw in (100.0, 102.0)

    def test_median_non_numeric_falls_back(self):
        choice = resolve("median", [cand("x", "a"), cand("x", "b")])
        assert choice.value.raw == "x"

    def test_unknown_strategy(self):
        with pytest.raises(FusionError):
            resolve("oracle", [cand(1, "a")])

    def test_empty_candidates(self):
        with pytest.raises(FusionError):
            resolve("majority", [])


def build_claims(n_items, sources_accuracy, rng_seed=13):
    """Claims where source s reports the truth with its given accuracy."""
    import random
    rng = random.Random(rng_seed)
    truth = {f"item-{i}": i for i in range(n_items)}
    claims = []
    for source, accuracy in sources_accuracy.items():
        for item, value in truth.items():
            claimed = value if rng.random() < accuracy else value + rng.randint(1, 5)
            claims.append(Claim(source, item, claimed))
    return claims, truth


class TestTruthDiscovery:
    def test_majority_baseline(self):
        claims = [
            Claim("a", "x", 1), Claim("b", "x", 1), Claim("c", "x", 2),
        ]
        result = majority_baseline(claims)
        assert result.values["x"] == 1
        assert result.confidences["x"] == pytest.approx(2 / 3)

    def test_empty_claims_raise(self):
        with pytest.raises(FusionError):
            majority_baseline([])
        with pytest.raises(FusionError):
            TruthFinder().run([])
        with pytest.raises(FusionError):
            AccuEM().run([])

    def test_truthfinder_learns_source_trust(self):
        claims, truth = build_claims(
            40, {"good": 0.95, "ok": 0.7, "bad": 0.3}
        )
        result = TruthFinder().run(claims)
        assert result.source_trust["good"] > result.source_trust["bad"]
        assert result.accuracy_against(truth) > 0.7

    def test_accuem_learns_source_accuracy(self):
        claims, truth = build_claims(
            60, {"good": 0.95, "ok": 0.7, "ok2": 0.65, "bad": 0.3}
        )
        result = AccuEM().run(claims)
        assert result.source_trust["good"] > result.source_trust["bad"]
        assert result.source_trust["ok"] > result.source_trust["bad"]
        assert result.source_trust["bad"] < 0.55
        assert result.accuracy_against(truth) > 0.8

    def test_models_beat_voting_with_biased_majority(self):
        # Three low-accuracy sources share a systematic bias (they copy the
        # same stale feed, erring to value+1), outnumbering two good
        # sources.  Voting caves to the biased majority; accuracy-aware EM
        # learns the good pair is more self-consistent and resists.
        import random
        rng = random.Random(5)
        truth = {f"i{i}": i * 10 for i in range(80)}
        claims = []
        for item, value in truth.items():
            claims.append(Claim("good1", item, value if rng.random() < 0.95 else value + 3))
            claims.append(Claim("good2", item, value if rng.random() < 0.9 else value + 7))
            for bad in ("bad1", "bad2", "bad3"):
                claims.append(
                    Claim(bad, item, value if rng.random() < 0.35 else value + 1)
                )
        vote = majority_baseline(claims).accuracy_against(truth)
        em = AccuEM().run(claims).accuracy_against(truth)
        # implication off: a +1 bias *looks* numerically compatible, which
        # is precisely what implication would (wrongly, here) reward
        tf = TruthFinder(implication_weight=0.0).run(claims).accuracy_against(truth)
        assert em > vote
        assert tf >= vote

    def test_iterations_bounded(self):
        claims, __ = build_claims(10, {"a": 0.9, "b": 0.5})
        result = TruthFinder(max_iterations=3).run(claims)
        assert result.iterations <= 3


SCHEMA = Schema(
    (
        Attribute("product", DataType.STRING, required=True),
        Attribute("price", DataType.CURRENCY),
        Attribute("updated", DataType.DATE),
    )
)


def record(source, product, price, updated, truth="P1"):
    return Record.of(
        {
            "product": product,
            "price": price,
            "updated": datetime.date.fromisoformat(updated),
            "_truth": truth,
        },
        source=source,
    )


class TestEntityFuser:
    def test_weighted_fusion_prefers_reliable_sources(self):
        cluster = EntityCluster(
            "e1",
            [
                record("good", "Acme TV", 399.0, "2016-03-15"),
                record("bad", "Acme TV", 39.0, "2016-03-01"),
                record("bad2", "Acme TV", 39.0, "2016-03-01"),
            ],
        )
        fuser = EntityFuser(
            SCHEMA, reliabilities={"good": 0.95, "bad": 0.2, "bad2": 0.2}
        )
        fused = fuser.fuse_cluster(cluster)
        assert fused.raw("price") == 399.0

    def test_recent_strategy_follows_freshness(self):
        cluster = EntityCluster(
            "e1",
            [
                record("a", "Acme TV", 300.0, "2016-01-01"),
                record("b", "Acme TV", 350.0, "2016-03-14"),
            ],
        )
        fuser = EntityFuser(
            SCHEMA,
            strategy_overrides={"price": "recent"},
            recency_attribute="updated",
        )
        assert fuser.fuse_cluster(cluster).raw("price") == 350.0

    def test_fusion_provenance_combines_sources(self):
        cluster = EntityCluster(
            "e1",
            [
                record("a", "Acme TV", 300.0, "2016-01-01"),
                record("b", "Acme TV", 300.0, "2016-02-01"),
            ],
        )
        fused = EntityFuser(SCHEMA).fuse_cluster(cluster)
        provenance = fused["price"].provenance
        assert provenance.step.value == "fusion"
        assert provenance.sources() == {"a", "b"}

    def test_missing_attribute_stays_missing(self):
        cluster = EntityCluster(
            "e1", [Record.of({"product": "Acme TV"}, source="a")]
        )
        fused = EntityFuser(SCHEMA).fuse_cluster(cluster)
        assert fused.get("price").is_missing

    def test_truth_column_majority(self):
        cluster = EntityCluster(
            "e1",
            [
                record("a", "Acme TV", 1.0, "2016-01-01", truth="P9"),
                record("b", "Acme TV", 1.0, "2016-01-01", truth="P9"),
                record("c", "Acme TV", 1.0, "2016-01-01", truth="P2"),
            ],
        )
        fused = EntityFuser(SCHEMA).fuse_cluster(cluster)
        assert fused.raw("_truth") == "P9"

    def test_fuse_builds_table(self):
        clusters = [
            EntityCluster("e1", [record("a", "TV", 1.0, "2016-01-01")]),
            EntityCluster("e2", [record("a", "Radio", 2.0, "2016-01-01")]),
        ]
        table = EntityFuser(SCHEMA).fuse(clusters)
        assert len(table) == 2
        assert table.name == "wrangled"
        assert {r.rid for r in table} == {"e1", "e2"}

    def test_a_previous_fuser_lends_only_records_nothing_would_change(self):
        tie = EntityCluster("e1", [
            record("a", "Acme TV", 300.0, "2016-01-01"),
            record("b", "Acme TV", 350.0, "2016-01-01"),
        ])
        alone = EntityCluster("e2", [record("c", "Globex Cam", 99.0, "2016-01-01")])

        def fuse(previous=None, clusters=(tie, alone), **options):
            fuser = EntityFuser(SCHEMA, **options)
            return fuser, {r.rid: r for r in fuser.fuse(clusters, previous=previous)}

        first, fused = fuse(precedence=("a", "b"))
        # Same records, order and settings: the very record comes back.
        __, again = fuse(first, precedence=("a", "b"))
        assert again["e1"] is fused["e1"] and again["e2"] is fused["e2"]
        # A re-rank that reorders a cluster re-fuses it (the tie moves),
        # and only it.
        __, reranked = fuse(first, precedence=("b", "a"))
        assert reranked["e1"].raw("price") == 350.0
        assert reranked["e2"] is fused["e2"]
        # Moved trust, or other records, re-fuse.
        __, trusted = fuse(first, precedence=("a", "b"), reliabilities={"c": 0.9})
        assert trusted["e2"] is not fused["e2"]
        copy = EntityCluster("e2", [record("c", "Globex Cam", 99.0, "2016-01-01")])
        __, refetched = fuse(first, clusters=(tie, copy), precedence=("a", "b"))
        assert refetched["e2"] is not fused["e2"]
        assert refetched["e1"] is fused["e1"]

    def test_precedence_breaks_ties_whatever_the_cluster_order(self):
        # Equal reliability, equal weight: the tie goes to the source
        # listed first, not to the record that happens to come first.
        cluster = EntityCluster(
            "e1",
            [
                record("a", "Acme TV", 300.0, "2016-01-01"),
                record("b", "Acme TV", 350.0, "2016-01-01"),
            ],
        )
        assert EntityFuser(SCHEMA).fuse_cluster(cluster).raw("price") == 300.0
        fuser = EntityFuser(SCHEMA, precedence=("b", "a"))
        assert fuser.fuse_cluster(cluster).raw("price") == 350.0
        # Unlisted sources follow the listed ones, in cluster order.
        fuser = EntityFuser(SCHEMA, precedence=("b",))
        assert fuser.fuse_cluster(cluster).raw("price") == 350.0
