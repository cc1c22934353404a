"""Wrapper induction: learning extraction programs from pages.

Two entry points, mirroring the two regimes the paper discusses:

* :func:`induce_wrapper` — supervised induction from a handful of
  annotated example records ("pay" a few examples, get a wrapper: the
  extraction end of pay-as-you-go, cf. Crescenzi et al. [12]);
* :func:`auto_induce` — fully automatic induction that detects the page's
  dominant repeating structure and types its fields with the built-in
  recognisers (the DIADEM-style "thousands of websites to a single
  database" regime [19]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import ExtractionError
from repro.extraction.dom import DomNode
from repro.extraction.patterns import best_recogniser
from repro.extraction.wrapper import FieldRule, Pages, Wrapper
from repro.model.schema import DataType
from repro.sources.base import Document

__all__ = ["ExampleAnnotation", "induce_wrapper", "auto_induce"]


@dataclass(frozen=True)
class ExampleAnnotation:
    """A user-annotated example record on one page: ``{attribute: text}``."""

    url: str
    fields: Mapping[str, str]


def _normalise(text: str) -> str:
    return " ".join(text.split()).lower()


def _find_value_candidates(
    texts: Sequence[tuple[DomNode, str]], value: str
) -> list[DomNode]:
    """All tight elements whose text carries ``value``, best first.

    ``texts`` pairs each element of the page with its normalised text.
    A value like a date may occur in *every* record of a listing page;
    the caller disambiguates by affinity to the other annotated fields.
    """
    wanted = _normalise(value)
    if not wanted:
        return []
    exact: list[DomNode] = []
    containing: list[DomNode] = []
    for node, text in texts:
        if not text:
            continue
        if text == wanted:
            exact.append(node)
        elif wanted in text:
            containing.append(node)
    if exact:
        return sorted(exact, key=lambda n: -n.depth())
    return sorted(containing, key=lambda n: len(n.text()))


def _lowest_common_ancestor(nodes: Sequence[DomNode]) -> DomNode:
    if not nodes:
        raise ExtractionError("cannot take LCA of no nodes")
    paths: list[list[DomNode]] = []
    for node in nodes:
        chain = [node] + list(node.ancestors())
        paths.append(list(reversed(chain)))
    lca = paths[0][0]
    for depth in range(min(len(p) for p in paths)):
        candidate = paths[0][depth]
        if all(p[depth] is candidate for p in paths):
            lca = candidate
        else:
            break
    return lca


def _common_suffix(paths: Sequence[tuple[str, ...]]) -> tuple[str, ...]:
    if not paths:
        return ()
    suffix: list[str] = []
    for position in range(1, min(len(p) for p in paths) + 1):
        step = paths[0][-position]
        if all(p[-position] == step for p in paths):
            suffix.append(step)
        else:
            break
    return tuple(reversed(suffix))


def _majority(values: Sequence[object]) -> object:
    counts: dict[object, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    return max(counts, key=lambda v: counts[v])


def induce_wrapper(
    documents: Sequence[Document],
    examples: Sequence[ExampleAnnotation],
    source: str | None = None,
) -> Wrapper:
    """Induce a wrapper from annotated examples.

    For each example, the annotated field texts are located in the page,
    their lowest common ancestor becomes the record node, and relative
    field paths are generalised across examples (common suffix; occurrence
    index by majority).  The wrapper's confidence is the fraction of
    example fields it re-extracts correctly.
    """
    if not examples:
        raise ExtractionError("wrapper induction needs at least one example")
    pages = Pages.of(documents)
    page_of = {doc.url: page for page, doc in enumerate(pages)}
    record_paths: list[tuple[str, ...]] = []
    field_observations: dict[str, list[tuple[tuple[str, ...], int, str, str]]] = {}

    for example in examples:
        if example.url not in page_of:
            raise ExtractionError(f"no document for example url {example.url!r}")
        texts = [
            (node, _normalise(node.text()))
            for node in pages.root(page_of[example.url]).elements()
        ]
        candidates: dict[str, list[DomNode]] = {}
        for attribute, value in example.fields.items():
            found = _find_value_candidates(texts, value)
            if found:
                candidates[attribute] = found
        if not candidates:
            continue
        # Resolve ambiguous fields (a date occurring in every record) by
        # affinity: anchor on the least ambiguous field, then prefer
        # candidates sharing the deepest ancestor with what is chosen.
        nodes: dict[str, DomNode] = {}
        for attribute in sorted(candidates, key=lambda a: len(candidates[a])):
            options = candidates[attribute]
            if not nodes:
                nodes[attribute] = options[0]
                continue
            anchor = _lowest_common_ancestor(list(nodes.values()))

            def shared_depth(node: DomNode) -> int:
                return _lowest_common_ancestor([node, anchor]).depth()

            nodes[attribute] = max(
                options, key=lambda n: (shared_depth(n), n.depth())
            )
        record_node = _lowest_common_ancestor(list(nodes.values()))
        # A record node that IS one of the field nodes is too tight: lift it.
        if record_node in nodes.values() and record_node.parent is not None:
            record_node = record_node.parent
        record_paths.append(record_node.path())
        for attribute, node in nodes.items():
            rel = node.path_below(record_node)
            siblings = record_node.descendants_at(rel) if rel else []
            index = next(
                (i for i, cand in enumerate(siblings) if cand is node), 0
            )
            node_text = _normalise(node.text())
            field_observations.setdefault(attribute, []).append(
                (rel, index, example.fields[attribute], node_text)
            )

    if not record_paths:
        raise ExtractionError(
            "could not locate any annotated values in the documents"
        )

    record_path = _common_suffix(record_paths)
    if not record_path:
        record_path = (_majority([p[-1] for p in record_paths]),)

    rules: list[FieldRule] = []
    for attribute, observations in field_observations.items():
        rel = _common_suffix([obs[0] for obs in observations])
        if not rel and observations[0][0]:
            rel = (_majority([obs[0][-1] for obs in observations]),)
        index = int(_majority([obs[1] for obs in observations]))  # type: ignore[arg-type]
        sample_values = [obs[2] for obs in observations]
        needs_segmentation = any(
            _normalise(value) != text for __, __, value, text in observations
        )
        rec = best_recogniser(sample_values) if needs_segmentation else None
        typed = rec or best_recogniser(sample_values)
        dtype = typed.dtype if typed is not None else DataType.STRING
        rules.append(
            FieldRule(
                attribute,
                rel,
                index=index,
                recogniser_name=rec.name if rec else None,
                dtype=dtype,
            )
        )

    wrapper = Wrapper(
        source or (pages[0].source if pages else "unknown"),
        record_path,
        tuple(sorted(rules, key=lambda r: r.attribute)),
    )
    return wrapper.with_confidence(
        _induction_confidence(wrapper, pages, page_of, examples)
    )


def _induction_confidence(
    wrapper: Wrapper,
    pages: Pages,
    page_of: Mapping[str, int],
    examples: Sequence[ExampleAnnotation],
) -> float:
    """Fraction of annotated fields the induced wrapper reproduces."""
    checked = 0
    correct = 0
    for example in examples:
        nodes = pages.record_nodes(wrapper, page_of[example.url])
        for attribute, value in example.fields.items():
            checked += 1
            rule = wrapper.rule_for(attribute)
            if rule is None:
                continue
            wanted = _normalise(value)
            for raw in pages.column(rule, nodes):
                if raw is None:
                    continue
                got = _normalise(str(raw))
                if got == wanted or wanted in got or got in wanted:
                    correct += 1
                    break
    if checked == 0:
        return 0.0
    return correct / checked


def auto_induce(
    documents: Sequence[Document],
    source: str | None = None,
    min_records: int = 3,
) -> Wrapper:
    """Fully automatic wrapper induction from unannotated pages.

    Finds the page's dominant repeating element signature (the candidate
    record node), collects the text-bearing descendant signatures shared by
    most instances as candidate fields, and types/names them with the field
    recognisers.  Attributes a recogniser cannot claim are named
    ``text_0``, ``text_1``, ... in document order.
    """
    if not documents:
        raise ExtractionError("auto induction needs at least one document")
    pages = Pages.of(documents)
    root = pages.root(0)
    groups: dict[tuple[str, ...], list[DomNode]] = {}
    for node in root.elements():
        if node.tag in ("html", "body", "head", "#document"):
            continue
        groups.setdefault(node.path(), []).append(node)
    candidates = {
        path: nodes
        for path, nodes in groups.items()
        if len(nodes) >= min_records and any(n.text() for n in nodes)
    }
    if not candidates:
        raise ExtractionError(
            f"no repeating structure with >= {min_records} instances found"
        )

    def richness(item: tuple[tuple[str, ...], list[DomNode]]) -> tuple[int, int]:
        path, nodes = item
        distinct_children = len(
            {child.signature for node in nodes for child in node.elements() if child is not node}
        )
        return (distinct_children, len(nodes))

    record_sig_path, record_nodes = max(candidates.items(), key=richness)

    # Candidate fields: (relative path, occurrence index) slots present in
    # most record instances.  The occurrence index is what makes bare
    # repeated cells (four <td>s per row) come out as four fields instead
    # of one.
    slot_counts: dict[tuple[tuple[str, ...], int], int] = {}
    slot_samples: dict[tuple[tuple[str, ...], int], list[str]] = {}
    for node in record_nodes:
        occurrence: dict[tuple[str, ...], int] = {}
        for descendant in node.elements():
            if descendant is node:
                continue
            has_own_text = any(
                child.is_text and child.text_content.strip()
                for child in descendant.children
            )
            if not has_own_text:
                continue
            rel = descendant.path_below(node)
            index = occurrence.get(rel, 0)
            occurrence[rel] = index + 1
            slot = (rel, index)
            slot_counts[slot] = slot_counts.get(slot, 0) + 1
            slot_samples.setdefault(slot, []).append(descendant.text())
    threshold = max(min_records, len(record_nodes) // 2)
    field_slots = [
        slot for slot, count in slot_counts.items() if count >= threshold
    ]
    if not field_slots:
        raise ExtractionError("repeating structure has no stable fields")

    rules = []
    used_names: set[str] = set()
    anonymous = 0
    for rel, index in sorted(field_slots, key=lambda s: (len(s[0]), s[0], s[1])):
        samples = slot_samples[(rel, index)]
        rec = best_recogniser(samples)
        if rec is not None and rec.name not in used_names:
            name = rec.name
            used_names.add(name)
        else:
            name = f"text_{anonymous}"
            anonymous += 1
        rules.append(
            FieldRule(
                name,
                rel,
                index=index,
                recogniser_name=rec.name if rec else None,
                dtype=rec.dtype if rec else DataType.STRING,
            )
        )
    # Self-assessment: how regularly do the rules fire across instances?
    wrapper = Wrapper(
        source or documents[0].source,
        record_sig_path[-1:],
        tuple(rules),
    )
    fires = 0
    slots = 0
    for rule in rules:
        for raw in pages.column(rule, record_nodes):
            slots += 1
            if raw is not None:
                fires += 1
    return wrapper.with_confidence(fires / slots if slots else 0.0)
