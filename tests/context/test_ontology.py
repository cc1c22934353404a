"""Tests for the domain ontology."""

import networkx as nx
import pytest

from repro.context.ontology import Ontology
from repro.datagen import ontologies
from repro.errors import ContextError
from repro.model.schema import DataType


@pytest.fixture
def products():
    onto = Ontology("products")
    onto.add_concept("Product", synonyms=["item", "article"])
    onto.add_concept("Electronics", parent="Product")
    onto.add_concept("Television", parent="Electronics", synonyms=["TV", "tv set"])
    onto.add_concept("Radio", parent="Electronics")
    onto.add_concept("Clothing", parent="Product")
    onto.add_property("price", "Product", DataType.CURRENCY, synonyms=["cost", "amount"])
    onto.add_property("name", "Product", DataType.STRING, synonyms=["title", "product name"])
    return onto


class TestConstruction:
    def test_duplicate_concept_rejected(self, products):
        with pytest.raises(ContextError):
            products.add_concept("Product")

    def test_unknown_parent_rejected(self, products):
        with pytest.raises(ContextError):
            products.add_concept("X", parent="Nope")

    def test_property_requires_domain(self, products):
        with pytest.raises(ContextError):
            products.add_property("weight", "Nope")

    def test_duplicate_property_rejected(self, products):
        with pytest.raises(ContextError):
            products.add_property("price", "Electronics")


class TestLookup:
    def test_concept_of_synonym_and_case(self, products):
        assert products.concept_of("TV") == "Television"
        assert products.concept_of("tv_set") == "Television"
        assert products.concept_of("ITEM") == "Product"
        assert products.concept_of("unicorn") is None

    def test_property_of(self, products):
        assert products.property_of("cost") == "price"
        assert products.property_of("Product Name") == "name"

    def test_hierarchy_queries(self, products):
        assert products.is_a("Television", "Product")
        assert not products.is_a("Clothing", "Electronics")
        assert "Electronics" in products.ancestors("Television")
        assert "Television" in products.descendants("Product")

    def test_unknown_concept_raises(self, products):
        with pytest.raises(ContextError):
            products.ancestors("Nope")


class TestSimilarity:
    def test_same_property_is_one(self, products):
        assert products.term_similarity("price", "cost") == 1.0

    def test_sibling_concepts_related(self, products):
        sim = products.concept_similarity("Television", "Radio")
        assert 0.0 < sim < 1.0

    def test_unrelated_branches_lower(self, products):
        tv_radio = products.concept_similarity("Television", "Radio")
        tv_clothing = products.concept_similarity("Television", "Clothing")
        assert tv_clothing < tv_radio

    def test_identity(self, products):
        assert products.concept_similarity("Radio", "Radio") == 1.0

    def test_unknown_term_contributes_nothing(self, products):
        assert products.term_similarity("price", "mystery") == 0.0

    def test_distinct_properties_discounted(self, products):
        sim = products.term_similarity("price", "title")
        assert sim < 0.5

    def test_symmetry(self, products):
        assert products.term_similarity("TV", "Radio") == pytest.approx(
            products.term_similarity("Radio", "TV")
        )


class TestValueServices:
    def test_expected_dtype(self, products):
        assert products.expected_dtype("cost") is DataType.CURRENCY
        assert products.expected_dtype("mystery") is None


def recorded(builder, monkeypatch):
    """``builder()``'s ontology and a networkx graph of the subclass edges
    it declared (child -> parent), recorded as the builder adds them."""
    graph = nx.DiGraph()

    class Recording(Ontology):
        def add_concept(self, name, parent=None, *args, **kwargs):
            graph.add_node(name)
            if parent is not None:
                graph.add_edge(name, parent)
            return super().add_concept(name, parent, *args, **kwargs)

    monkeypatch.setattr(ontologies, "Ontology", Recording)
    return builder(), graph


def networkx_similarity(graph, a, b):
    """Wu–Palmer over the graph: depth is 1 + the longest path up."""
    if a == b:
        return 1.0
    depth = {}
    for node in nx.topological_sort(graph.reverse()):
        depth[node] = 1 + max(
            (depth[p] for p in graph.successors(node)), default=0
        )
    common = ({a} | nx.descendants(graph, a)) & ({b} | nx.descendants(graph, b))
    if not common:
        return 0.0
    return 2.0 * max(depth[c] for c in common) / (depth[a] + depth[b])


class TestAgainstNetworkx:
    """Every hierarchy query on the shipped ontologies, for every concept
    pair, against a networkx graph of the same subclass edges."""

    @pytest.mark.parametrize("builder", [
        ontologies.product_ontology, ontologies.location_ontology,
    ])
    def test_every_pair(self, builder, monkeypatch):
        onto, graph = recorded(builder, monkeypatch)
        concepts = list(onto.concepts)
        assert sorted(concepts) == sorted(graph)
        for a in concepts:
            assert onto.ancestors(a) == nx.descendants(graph, a)
            assert onto.descendants(a) == nx.ancestors(graph, a)
            for b in concepts:
                assert onto.is_a(a, b) == (
                    a == b or nx.has_path(graph, a, b)
                )
                assert onto.concept_similarity(a, b) == networkx_similarity(
                    graph, a, b
                )
