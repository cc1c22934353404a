"""Lightweight domain ontologies for the data context.

Example 4 in the paper: "there are ontologies that describe products, such
as The Product Types Ontology ... a product types ontology could be used to
inform the selection of sources based on their relevance, as an input to
the matching of sources that supplements syntactic matching, and as a guide
to the fusion of property values".

An :class:`Ontology` holds a single-parent subclass hierarchy of concepts,
per-concept synonym sets, and typed properties.  It answers the three questions the wrangler
asks: *do these two terms name the same concept/property?*, *how related
are two concepts?*, and *which concept does this value most plausibly
instantiate?*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import ContextError
from repro.model.schema import DataType

__all__ = ["Concept", "Property", "Ontology"]


def _normalise(term: str) -> str:
    return " ".join(term.lower().replace("_", " ").replace("-", " ").split())


@dataclass(frozen=True)
class Concept:
    """A named concept with its synonym set."""

    name: str
    synonyms: frozenset[str] = frozenset()
    description: str = ""

    def labels(self) -> frozenset[str]:
        """All normalised surface forms of the concept."""
        return frozenset({_normalise(self.name)} | {
            _normalise(s) for s in self.synonyms
        })


@dataclass(frozen=True)
class Property:
    """A typed property, attached to a domain concept."""

    name: str
    domain: str
    dtype: DataType = DataType.STRING
    synonyms: frozenset[str] = frozenset()

    def labels(self) -> frozenset[str]:
        """All normalised surface forms of the property."""
        return frozenset({_normalise(self.name)} | {
            _normalise(s) for s in self.synonyms
        })


class Ontology:
    """A single-parent subclass hierarchy of concepts with synonyms and
    typed properties."""

    def __init__(self, name: str = "ontology") -> None:
        self.name = name
        #: Subclass-of: each concept with a parent maps to it.  A parent is
        #: defined before its children, so the map can hold no cycle.
        self._parent: dict[str, str] = {}
        self._concepts: dict[str, Concept] = {}
        self._properties: dict[str, Property] = {}
        self._label_index: dict[str, str] = {}
        self._property_label_index: dict[str, str] = {}

    # -- construction --------------------------------------------------

    def add_concept(
        self,
        name: str,
        parent: str | None = None,
        synonyms: Iterable[str] = (),
        description: str = "",
    ) -> Concept:
        """Add a concept, optionally as a subclass of ``parent``."""
        if name in self._concepts:
            raise ContextError(f"concept {name!r} already defined")
        if parent is not None:
            if parent not in self._concepts:
                raise ContextError(f"unknown parent concept {parent!r}")
            self._parent[name] = parent
        concept = Concept(name, frozenset(synonyms), description)
        self._concepts[name] = concept
        for label in concept.labels():
            self._label_index.setdefault(label, name)
        return concept

    def add_property(
        self,
        name: str,
        domain: str,
        dtype: DataType = DataType.STRING,
        synonyms: Iterable[str] = (),
    ) -> Property:
        """Add a typed property to concept ``domain``."""
        if domain not in self._concepts:
            raise ContextError(f"unknown domain concept {domain!r}")
        if name in self._properties:
            raise ContextError(f"property {name!r} already defined")
        prop = Property(name, domain, dtype, frozenset(synonyms))
        self._properties[name] = prop
        for label in prop.labels():
            self._property_label_index.setdefault(label, name)
        return prop

    # -- lookups ---------------------------------------------------------

    @property
    def concepts(self) -> Mapping[str, Concept]:
        """All concepts by name."""
        return dict(self._concepts)

    @property
    def properties(self) -> Mapping[str, Property]:
        """All properties by name."""
        return dict(self._properties)

    def concept_of(self, term: str) -> str | None:
        """The concept whose label matches ``term``, if any."""
        return self._label_index.get(_normalise(term))

    def property_of(self, term: str) -> str | None:
        """The property whose label matches ``term``, if any."""
        return self._property_label_index.get(_normalise(term))

    def _chain(self, concept: str) -> list[str]:
        """``concept`` followed by its superclasses, nearest first."""
        self._require(concept)
        chain = [concept]
        while chain[-1] in self._parent:
            chain.append(self._parent[chain[-1]])
        return chain

    def ancestors(self, concept: str) -> set[str]:
        """All superclasses of ``concept`` (transitively)."""
        return set(self._chain(concept)[1:])

    def descendants(self, concept: str) -> set[str]:
        """All subclasses of ``concept`` (transitively)."""
        self._require(concept)
        # Parents precede their children in definition order.
        below = {concept}
        for name in self._concepts:
            if self._parent.get(name) in below:
                below.add(name)
        return below - {concept}

    def is_a(self, concept: str, ancestor: str) -> bool:
        """Whether ``concept`` is (a subclass of) ``ancestor``."""
        self._require(concept)
        self._require(ancestor)
        return concept == ancestor or ancestor in self.ancestors(concept)

    def _require(self, concept: str) -> None:
        if concept not in self._concepts:
            raise ContextError(f"unknown concept {concept!r}")

    # -- semantic similarity ----------------------------------------------

    def term_similarity(self, term_a: str, term_b: str) -> float:
        """Ontology-backed similarity of two attribute/term names.

        1.0 when both resolve to the same concept or property; otherwise a
        Wu–Palmer-style score over the subclass hierarchy; 0.0 when either
        term is unknown to the ontology (the ontology then contributes no
        evidence).
        """
        prop_a, prop_b = self.property_of(term_a), self.property_of(term_b)
        if prop_a is not None and prop_a == prop_b:
            return 1.0
        concept_a, concept_b = self.concept_of(term_a), self.concept_of(term_b)
        if prop_a is not None and prop_b is not None:
            concept_a = self._properties[prop_a].domain
            concept_b = self._properties[prop_b].domain
            if prop_a != prop_b:
                # Distinct properties are distinct even on related domains.
                return 0.25 * self.concept_similarity(concept_a, concept_b)
        if concept_a is None or concept_b is None:
            return 0.0
        return self.concept_similarity(concept_a, concept_b)

    def concept_similarity(self, concept_a: str, concept_b: str) -> float:
        """Wu–Palmer similarity over the subclass hierarchy.

        A concept's depth is the length of its chain to the root, so the
        concepts two chains share are the root path down to their lowest
        common ancestor, and their number is its depth.
        """
        chain_a, chain_b = self._chain(concept_a), self._chain(concept_b)
        if concept_a == concept_b:
            return 1.0
        lca_depth = len(set(chain_a) & set(chain_b))
        return 2.0 * lca_depth / (len(chain_a) + len(chain_b))

    def expected_dtype(self, term: str) -> DataType | None:
        """The declared dtype of the property matching ``term``, if any."""
        prop = self.property_of(term)
        if prop is None:
            return None
        return self._properties[prop].dtype
