"""Tests for evidence-pooling schema matching."""

import pytest

from repro.context.data_context import DataContext
from repro.datagen.ontologies import product_ontology
from repro.datagen.products import TARGET_SCHEMA, SourceSpec, generate_world
from repro.matching.schema_matching import SchemaMatcher
from repro.model.records import Table


@pytest.fixture(scope="module")
def marketplace_table():
    # schema variant 1: title/manufacturer/dept/offer_price/product_url/last_seen
    world = generate_world(
        n_products=40,
        seed=21,
        specs=[SourceSpec("market", coverage=1.0, schema_variant=1,
                          error_rate=0.0, staleness=0.0, missing_rate=0.0)],
    )
    return Table.from_rows("market", world.source_rows["market"])


@pytest.fixture(scope="module")
def context():
    return DataContext("products").with_ontology(product_ontology())


class TestChannels:
    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError):
            SchemaMatcher(channels=("name", "telepathy"))

    def test_name_only_matches_obvious_pairs(self, marketplace_table):
        matcher = SchemaMatcher(channels=("name",), threshold=0.5)
        matches = {
            (c.source_attribute, c.target_attribute)
            for c in matcher.match(marketplace_table, TARGET_SCHEMA)
        }
        # the description hint "manufacturer" carries this one on names alone
        assert ("manufacturer", "brand") in matches

    def test_name_only_is_not_enough(self, marketplace_table, context):
        # The paper's Section 2.3 claim: syntactic matching alone misses
        # semantic renames that the full evidence set recovers.
        name_only = SchemaMatcher(context, channels=("name",))
        full = SchemaMatcher(context)
        correct = {
            ("title", "product"), ("manufacturer", "brand"),
            ("dept", "category"), ("offer_price", "price"),
            ("product_url", "url"), ("last_seen", "updated"),
        }
        got_name = {
            (c.source_attribute, c.target_attribute)
            for c in name_only.match(marketplace_table, TARGET_SCHEMA)
        }
        got_full = {
            (c.source_attribute, c.target_attribute)
            for c in full.match(marketplace_table, TARGET_SCHEMA)
        }
        assert len(got_full & correct) > len(got_name & correct)

    def test_ontology_channel_finds_synonyms(self, marketplace_table, context):
        name_only = SchemaMatcher(context, channels=("name",), threshold=0.5)
        with_onto = SchemaMatcher(
            context, channels=("name", "ontology"), threshold=0.5
        )
        pairs_name = {
            (c.source_attribute, c.target_attribute)
            for c in name_only.match(marketplace_table, TARGET_SCHEMA)
        }
        pairs_onto = {
            (c.source_attribute, c.target_attribute)
            for c in with_onto.match(marketplace_table, TARGET_SCHEMA)
        }
        # 'manufacturer' -> 'brand' and 'dept' -> 'category' need semantics
        assert ("manufacturer", "brand") in pairs_onto
        assert ("dept", "category") in pairs_onto
        assert len(pairs_onto) >= len(pairs_name)

    def test_instance_evidence_separates_types(self, marketplace_table, context):
        matcher = SchemaMatcher(
            context, channels=("name", "instance", "ontology")
        )
        matches = {
            c.source_attribute: c.target_attribute
            for c in matcher.match(marketplace_table, TARGET_SCHEMA)
        }
        assert matches.get("offer_price") == "price"
        assert matches.get("last_seen") == "updated"

    def test_feedback_rejection_suppresses_match(self, marketplace_table, context):
        feedback = {("title", "product"): [False] * 8}
        matcher = SchemaMatcher(
            context,
            channels=("name", "ontology", "feedback"),
            feedback=feedback,
        )
        matches = {
            c.source_attribute: c.target_attribute
            for c in matcher.match(marketplace_table, TARGET_SCHEMA)
        }
        assert matches.get("title") != "product"

    def test_feedback_confirmation_raises_confidence(self, marketplace_table, context):
        target = TARGET_SCHEMA["category"]
        without = SchemaMatcher(context).score_pair(
            marketplace_table, "dept", target
        )
        with_feedback = SchemaMatcher(
            context, feedback={("dept", "category"): [True] * 5}
        ).score_pair(marketplace_table, "dept", target)
        assert with_feedback.confidence > without.confidence
        assert "feedback" in {e.kind for e in with_feedback.evidence}


class TestAssignment:
    def test_one_to_one(self, marketplace_table, context):
        matcher = SchemaMatcher(context)
        matches = matcher.match(marketplace_table, TARGET_SCHEMA)
        sources = [c.source_attribute for c in matches]
        targets = [c.target_attribute for c in matches]
        assert len(sources) == len(set(sources))
        assert len(targets) == len(set(targets))

    def test_threshold_prunes(self, marketplace_table, context):
        permissive = SchemaMatcher(context, threshold=0.1)
        strict = SchemaMatcher(context, threshold=0.95)
        assert len(strict.match(marketplace_table, TARGET_SCHEMA)) <= len(
            permissive.match(marketplace_table, TARGET_SCHEMA)
        )

    def test_underscore_attributes_ignored(self, marketplace_table, context):
        matcher = SchemaMatcher(context, threshold=0.1)
        matches = matcher.match(marketplace_table, TARGET_SCHEMA)
        assert all(not c.source_attribute.startswith("_") for c in matches)

    def test_full_variant_recovery(self, context):
        # With all channels on, every schema variant should map completely.
        for variant in range(4):
            world = generate_world(
                n_products=30,
                seed=30 + variant,
                specs=[SourceSpec("s", coverage=1.0, schema_variant=variant,
                                  error_rate=0.0, staleness=0.0,
                                  missing_rate=0.0)],
            )
            table = Table.from_rows("s", world.source_rows["s"])
            matcher = SchemaMatcher(context)
            matches = matcher.match(table, TARGET_SCHEMA)
            renames = world.renames["s"]
            expected = {
                (local, canonical) for canonical, local in renames.items()
            }
            got = {
                (c.source_attribute, c.target_attribute) for c in matches
            }
            missing = expected - got
            assert not missing, f"variant {variant} missed {missing}"
