"""Wrappers: executable extraction programs over DOM trees.

A :class:`Wrapper` turns one source's web pages into a
:class:`~repro.model.records.Table` — "providing syntactically consistent
representations that can then be brought together by the Data Integration
component" (Section 4).  Wrappers are data, not code: a record-node path
plus per-attribute :class:`FieldRule` objects, so they can be induced from
examples, annotated with quality scores, repaired, and stored in the
working data like any other artifact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from repro.extraction.dom import DomNode, parse_html
from repro.extraction.patterns import Recogniser, recogniser
from repro.model.provenance import Provenance, Step
from repro.model.records import Record, Table
from repro.model.schema import Attribute, DataType, Schema
from repro.model.values import Value
from repro.sources.base import Document

__all__ = ["FieldRule", "Pages", "Wrapper"]

_wrapper_counter = itertools.count(1)


@dataclass(frozen=True)
class FieldRule:
    """How to pull one attribute out of a record node.

    ``rel_path`` is a signature suffix located under the record node;
    ``index`` picks among multiple matches; ``recogniser_name`` optionally
    post-processes the node text (e.g. pull the price out of
    ``"£399 — in stock"``); ``attr_source`` reads an HTML attribute (e.g.
    ``href``) instead of the text.
    """

    attribute: str
    rel_path: tuple[str, ...]
    index: int = 0
    recogniser_name: str | None = None
    attr_source: str | None = None
    dtype: DataType = DataType.STRING
    confidence: float = 1.0

    def select(self, record_node: DomNode) -> DomNode | None:
        """The DOM node this rule reads within ``record_node``."""
        if not self.rel_path:
            return record_node
        matches = record_node.descendants_at(self.rel_path)
        if self.index < len(matches):
            return matches[self.index]
        return None

    def read(self, node: DomNode | None) -> object | None:
        """The normalised raw value of this attribute off the node
        :meth:`select` found, or ``None``."""
        if node is None:
            return None
        if self.attr_source is not None:
            raw = node.attrs.get(self.attr_source)
            return raw if raw else None
        text = node.text()
        if not text:
            return None
        if self.recogniser_name is not None:
            return recogniser(self.recogniser_name).find(text)
        return text


@dataclass(frozen=True)
class Wrapper:
    """An induced extraction program for one source's page layout."""

    source: str
    record_path: tuple[str, ...]
    rules: tuple[FieldRule, ...]
    confidence: float = 1.0
    wrapper_id: str = field(
        default_factory=lambda: f"wrapper-{next(_wrapper_counter)}"
    )

    def schema(self) -> Schema:
        """The relational schema this wrapper produces."""
        return Schema(
            tuple(
                Attribute(rule.attribute, rule.dtype) for rule in self.rules
            )
        )

    def record_nodes(self, root: DomNode) -> list[DomNode]:
        """All record nodes in a parsed page."""
        last = self.record_path[-1]
        return [
            node
            for node in root.elements()
            if node.signature == last and node.ends_path(self.record_path)
        ]

    def extract(self, documents: Sequence[Document]) -> Table:
        """Extract a table from a batch of documents."""
        pages = Pages.of(documents)
        provenance = Provenance.source(self.source).derive(
            Step.EXTRACTION, self.wrapper_id
        )
        confidences = [
            min(self.confidence, rule.confidence) for rule in self.rules
        ]
        table = Table(self.source, self.schema())
        for page in range(len(pages)):
            nodes = pages.record_nodes(self, page)
            columns = [pages.column(rule, nodes) for rule in self.rules]
            for raws in zip(*columns):
                cells = {
                    rule.attribute: Value(raw, rule.dtype, confidence, provenance)
                    for rule, raw, confidence in zip(self.rules, raws, confidences)
                }
                if any(not value.is_missing for value in cells.values()):
                    table.append(Record.of(cells, source=self.source))
        return table

    def with_rule(self, rule: FieldRule) -> "Wrapper":
        """A copy with the rule for ``rule.attribute`` replaced (or added)."""
        kept = tuple(r for r in self.rules if r.attribute != rule.attribute)
        return replace(self, rules=kept + (rule,))

    def rule_for(self, attribute: str) -> FieldRule | None:
        """The rule extracting ``attribute``, if any."""
        for rule in self.rules:
            if rule.attribute == attribute:
                return rule
        return None

    def with_confidence(self, confidence: float) -> "Wrapper":
        """A copy carrying a revised overall confidence."""
        return replace(self, confidence=confidence)


class Pages(Sequence[Document]):
    """One source's fetched pages for the length of one extraction call.

    Induction, extraction and repair of one source all read the same
    pages, and a parsed page never changes (:class:`DomNode`), so each
    ``Document`` is parsed on first use and exactly once, its record
    nodes are listed once per record path, and each field column is read
    once per record node.  Whoever makes the page set decides how long
    the parsed pages live: hand it on to share them, drop it and they go.
    """

    def __init__(self, documents: Iterable[Document]) -> None:
        self._documents = tuple(documents)
        self._roots: dict[int, DomNode] = {}
        self._record_nodes: dict[tuple[tuple[str, ...], int], list[DomNode]] = {}
        #: ``(rel_path, index)`` → what ``FieldRule.select`` found, by
        #: record node; with the recogniser and attribute source added,
        #: what ``FieldRule.read`` made of it.
        self._selected: dict[tuple, dict[DomNode, DomNode | None]] = {}
        self._values: dict[tuple, dict[DomNode, object | None]] = {}

    @classmethod
    def of(cls, documents: Sequence[Document]) -> "Pages":
        """``documents`` itself when it already is a page set (its maker
        shares it), else a fresh one over them."""
        return documents if isinstance(documents, cls) else cls(documents)

    def __len__(self) -> int:
        return len(self._documents)

    def __getitem__(self, page: int) -> Document:  # type: ignore[override]
        return self._documents[page]

    def root(self, page: int) -> DomNode:
        """The parsed DOM of page number ``page``."""
        root = self._roots.get(page)
        if root is None:
            root = self._roots[page] = parse_html(self._documents[page].html)
        return root

    def record_nodes(self, wrapper: Wrapper, page: int) -> list[DomNode]:
        """``wrapper``'s record nodes on page number ``page``."""
        key = (wrapper.record_path, page)
        nodes = self._record_nodes.get(key)
        if nodes is None:
            nodes = self._record_nodes[key] = wrapper.record_nodes(self.root(page))
        return nodes

    def site_record_nodes(self, wrapper: Wrapper) -> list[DomNode]:
        """``wrapper``'s record nodes on every page, in page order."""
        return [
            node
            for page in range(len(self))
            for node in self.record_nodes(wrapper, page)
        ]

    def column(
        self, rule: FieldRule, record_nodes: Sequence[DomNode]
    ) -> list[object | None]:
        """What ``rule`` reads off each of ``record_nodes``."""
        where = (rule.rel_path, rule.index)
        selected = self._selected.setdefault(where, {})
        values = self._values.setdefault(
            where + (rule.recogniser_name, rule.attr_source), {}
        )
        column = []
        for node in record_nodes:
            if node not in values:
                if node not in selected:
                    selected[node] = rule.select(node)
                values[node] = rule.read(selected[node])
            column.append(values[node])
        return column
