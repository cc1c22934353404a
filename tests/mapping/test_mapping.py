"""Tests for mapping generation, execution, and selection."""

import pytest

from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.datagen.ontologies import product_ontology
from repro.datagen.products import TARGET_SCHEMA, SourceSpec, generate_world
from repro.errors import MappingError
from repro.mapping.mapping import AttributeMap, Mapping
from repro.mapping.selection import MappingSelector
from repro.matching.schema_matching import SchemaMatcher
from repro.model.annotations import AnnotationStore, Dimension, QualityAnnotation
from repro.model.provenance import Step
from repro.model.records import Table
from repro.model.schema import DataType, Schema
from repro.obs import MetricsRegistry
from repro.sources.memory import MemorySource
from repro.sources.registry import SourceRegistry


@pytest.fixture(scope="module")
def world():
    return generate_world(
        n_products=30,
        seed=41,
        specs=[
            SourceSpec("clean", coverage=1.0, schema_variant=1,
                       error_rate=0.0, staleness=0.0, missing_rate=0.0,
                       cost=4.0),
            SourceSpec("dirty", coverage=0.9, schema_variant=2,
                       error_rate=0.4, staleness=0.4, missing_rate=0.3,
                       cost=0.5),
        ],
    )


@pytest.fixture(scope="module")
def clean_table(world):
    return Table.from_rows("clean", world.source_rows["clean"])


@pytest.fixture(scope="module")
def clean_mapping(world, clean_table):
    context = DataContext("p").with_ontology(product_ontology())
    matches = SchemaMatcher(context).match(clean_table, TARGET_SCHEMA)
    return Mapping.from_correspondences("clean", TARGET_SCHEMA, matches)


class TestMappingExecution:
    def test_translates_into_target_schema(self, clean_mapping, clean_table):
        mapped = clean_mapping.apply(clean_table)
        assert mapped.schema is TARGET_SCHEMA
        assert len(mapped) == len(clean_table)
        record = mapped[0]
        assert record.raw("product") is not None
        assert isinstance(record.raw("price"), float)

    def test_provenance_gains_mapping_step(self, clean_mapping, clean_table):
        mapped = clean_mapping.apply(clean_table)
        provenance = mapped[0]["price"].provenance
        assert provenance.step is Step.MAPPING
        assert provenance.sources() == {"clean"}

    def test_truth_column_carried(self, clean_mapping, clean_table):
        mapped = clean_mapping.apply(clean_table)
        assert mapped[0].raw("_truth") is not None

    def test_wrong_source_rejected(self, clean_mapping):
        other = Table.from_rows("other", [{"x": 1}])
        with pytest.raises(MappingError):
            clean_mapping.apply(other)

    def test_uncoercible_value_keeps_raw_with_penalty(self):
        schema = Schema.of(("price", DataType.CURRENCY))
        table = Table.from_rows("s", [{"p": "not-a-price"}])
        mapping = Mapping("s", schema, (AttributeMap("price", "p", 0.9),))
        mapped = mapping.apply(table)
        value = mapped[0]["price"]
        assert value.raw == "not-a-price"
        assert value.confidence == pytest.approx(0.9 * 0.5)

    def test_transform_applied(self):
        schema = Schema.of(("price", DataType.CURRENCY))
        table = Table.from_rows("s", [{"pennies": 19900}])
        mapping = Mapping(
            "s", schema,
            (AttributeMap("price", "pennies", transform=lambda v: v / 100),),
        )
        assert mapping.apply(table)[0].raw("price") == pytest.approx(199.0)

    def test_unmapped_attribute_missing(self):
        schema = Schema.of("a", "b")
        table = Table.from_rows("s", [{"x": 1}])
        mapping = Mapping("s", schema, (AttributeMap("a", "x"),))
        record = mapping.apply(table)[0]
        assert record.raw("a") == "1"  # coerced to the declared STRING type
        assert record.get("b").is_missing


class TestCarriedTranslation:
    """``apply(previous=)`` keeps the translated record of every input
    record that is the same object under the same mapping."""

    def test_same_records_same_mapping_are_kept(self, clean_mapping, clean_table):
        first = clean_mapping.apply(clean_table)
        grown = Table(
            clean_table.name, clean_table.schema,
            clean_table.records[:-1] + Table.from_rows(
                "clean", [clean_table[-1].to_dict()], source="clean"
            ).records,
        )
        metrics = MetricsRegistry()
        second = clean_mapping.apply(
            grown, previous=(clean_mapping, clean_table, first), metrics=metrics
        )
        assert [a is b for a, b in zip(first, second)] == (
            [True] * (len(first) - 1) + [False]
        )
        assert second[-1] == clean_mapping.apply_record(grown[-1])
        assert metrics.counter("mapping.records_reused").value == len(first) - 1

    def test_another_mapping_translates_afresh(self, world, clean_table):
        context = DataContext("p").with_ontology(product_ontology())
        matches = SchemaMatcher(context).match(clean_table, TARGET_SCHEMA)
        one = Mapping.from_correspondences("clean", TARGET_SCHEMA, matches)
        other = Mapping.from_correspondences("clean", TARGET_SCHEMA, matches)
        first = one.apply(clean_table)
        second = other.apply(clean_table, previous=(one, clean_table, first))
        assert not any(a is b for a, b in zip(first, second))
        assert second.to_rows() == first.to_rows()


class TestMappingMetadata:
    def test_coverage(self, clean_mapping):
        assert clean_mapping.coverage() == 1.0

    def test_covers_required(self):
        partial = Mapping(
            "s", TARGET_SCHEMA, (AttributeMap("brand", "b"),)
        )
        assert not partial.covers_required()

    def test_confidence_penalises_missing_required(self):
        full = Mapping.from_correspondences("s", TARGET_SCHEMA, [])
        assert full.confidence == 0.0

    def test_describe(self, clean_mapping):
        text = clean_mapping.describe()
        assert "clean" in text and "price<-" in text


class TestMappingSelection:
    @pytest.fixture
    def setup(self, world):
        registry = SourceRegistry()
        annotations = AnnotationStore()
        context = DataContext("p").with_ontology(product_ontology())
        mappings = []
        for name in ("clean", "dirty"):
            spec = world.specs[name]
            registry.register(
                MemorySource(name, world.source_rows[name],
                             cost_per_access=spec.cost)
            )
            table = Table.from_rows(name, world.source_rows[name])
            matches = SchemaMatcher(context).match(table, TARGET_SCHEMA)
            mappings.append(
                Mapping.from_correspondences(name, TARGET_SCHEMA, matches)
            )
        return registry, annotations, mappings

    def test_selection_respects_budget(self, setup):
        registry, annotations, mappings = setup
        selector = MappingSelector(registry, annotations)
        rich = UserContext("rich", TARGET_SCHEMA, budget=100.0)
        poor = UserContext("poor", TARGET_SCHEMA, budget=1.0)
        assert len(selector.select(mappings, rich)) == 2
        chosen = selector.select(mappings, poor)
        assert len(chosen) == 1
        assert chosen[0].mapping.source_name == "dirty"  # only affordable one

    def test_annotations_steer_selection(self, setup):
        registry, annotations, mappings = setup
        # Quality analysis has discovered 'dirty' is inaccurate and stale.
        annotations.add(QualityAnnotation("source:dirty", Dimension.ACCURACY, 0.2))
        annotations.add(QualityAnnotation("source:dirty", Dimension.TIMELINESS, 0.2))
        annotations.add(QualityAnnotation("source:clean", Dimension.ACCURACY, 0.95))
        annotations.add(QualityAnnotation("source:clean", Dimension.TIMELINESS, 0.95))
        selector = MappingSelector(registry, annotations)
        precision = UserContext.precision_first("p", TARGET_SCHEMA)
        ranked = selector.select(mappings, precision)
        assert ranked[0].mapping.source_name == "clean"

    def test_floors_exclude(self, setup):
        registry, annotations, mappings = setup
        annotations.add(QualityAnnotation("source:dirty", Dimension.ACCURACY, 0.1))
        strict = UserContext(
            "strict", TARGET_SCHEMA, floors={Dimension.ACCURACY: 0.8}
        )
        selector = MappingSelector(registry, annotations)
        chosen = selector.select(mappings, strict)
        assert all(s.mapping.source_name != "dirty" for s in chosen)

    def test_limit(self, setup):
        registry, annotations, mappings = setup
        selector = MappingSelector(registry, annotations)
        ctx = UserContext("u", TARGET_SCHEMA)
        assert len(selector.select(mappings, ctx, limit=1)) == 1

    def test_topsis_method_runs(self, setup):
        registry, annotations, mappings = setup
        selector = MappingSelector(registry, annotations)
        ctx = UserContext("u", TARGET_SCHEMA, decision_method="topsis")
        assert selector.select(mappings, ctx)

    def test_mapping_missing_required_rejected(self, setup):
        registry, annotations, __ = setup
        partial = Mapping("clean", TARGET_SCHEMA, (AttributeMap("brand", "b"),))
        selector = MappingSelector(registry, annotations)
        ctx = UserContext("u", TARGET_SCHEMA)
        assert selector.select([partial], ctx) == []
