"""Equivalence oracle for the per-source page set, and its lifetime.

The ``old_*`` functions and ``OldRepairer`` below are the extraction path
this repo shipped before :class:`~repro.extraction.wrapper.Pages`, kept
verbatim as a test-only reference: every call parses its documents
again, every signature, class list, text and path is recomputed from the
node's ``tag`` / ``attrs`` / ``text_content`` on every access, and the
repairer re-extracts the whole site into a throw-away table for every
candidate it scores.  Nothing in it touches a memo field of ``DomNode``.

The matrix is every template × {annotated examples, ``auto_induce``} ×
{the wrapper as induced, its price rule pointed at a title that carries
the price, its price and date rules exchanged} × {the default validity
bar, no bar}: the induced wrapper, the repaired wrapper, the repair
report and the repaired table's fingerprint must be identical.  Record ids are minted from a process counter and the
reference mints many more of them; ``table_fingerprint`` canonicalises
those (and the ``wrapper-N`` provenance refs).
"""

import datetime
import gc
import random
from typing import Iterator, Mapping, Sequence

import pytest

from repro import DataContext, MemoryDocumentSource, UserContext, Wrangler
from repro.datagen import TARGET_SCHEMA
from repro.datagen.htmlgen import (
    TEMPLATES,
    annotations_for,
    random_listings,
    render_site,
)
from repro.datagen.ontologies import product_ontology
from repro.errors import ExtractionError
from repro.extraction.dom import DomNode, parse_html
from repro.extraction.induction import (
    ExampleAnnotation,
    _common_suffix,
    _lowest_common_ancestor,
    _majority,
    _normalise,
    auto_induce,
    induce_wrapper,
)
from repro.extraction.patterns import best_recogniser, recognise, recogniser
from repro.extraction.repair import (
    _RECOGNISER_FOR_DTYPE,
    RepairAction,
    RepairReport,
    WrapperRepairer,
)
from repro.extraction.wrapper import FieldRule, Pages, Wrapper
from repro.model.provenance import Provenance, Step
from repro.model.records import Record, Table
from repro.model.schema import DataType
from repro.model.values import Value
from repro.model.workingdata import table_fingerprint
from repro.sources.base import Document

# -- the parent commit's DOM accessors: nothing kept between calls ----------


def old_signature(node: DomNode) -> str:
    classes = tuple(node.attrs.get("class", "").split())
    return f"{node.tag}.{classes[0]}" if classes else node.tag


def old_text(node: DomNode) -> str:
    if node.tag == "#text":
        return " ".join(node.text_content.split())
    parts = [old_text(child) for child in node.children]
    return " ".join(part for part in parts if part)


def old_walk(node: DomNode) -> Iterator[DomNode]:
    yield node
    for child in node.children:
        yield from old_walk(child)


def old_elements(node: DomNode) -> Iterator[DomNode]:
    for descendant in old_walk(node):
        if descendant.tag != "#text":
            yield descendant


def old_path(node: DomNode) -> tuple[str, ...]:
    steps: list[str] = []
    current: DomNode | None = node
    while current is not None and current.tag != "#document":
        if current.tag != "#text":
            steps.append(old_signature(current))
        current = current.parent
    return tuple(reversed(steps))


# -- the parent commit's wrapper.py -----------------------------------------


def _path_ends_with(path: tuple[str, ...], suffix: tuple[str, ...]) -> bool:
    if len(suffix) > len(path):
        return False
    return path[len(path) - len(suffix):] == suffix


def _relative_path(node: DomNode, ancestor: DomNode) -> tuple[str, ...] | None:
    steps: list[str] = []
    current: DomNode | None = node
    while current is not None and current is not ancestor:
        if current.tag != "#text":
            steps.append(old_signature(current))
        current = current.parent
    if current is None:
        return None
    return tuple(reversed(steps))


def old_select(rule: FieldRule, record_node: DomNode) -> DomNode | None:
    if not rule.rel_path:
        return record_node
    matches = []
    for node in old_elements(record_node):
        if node is record_node:
            continue
        if old_signature(node) != rule.rel_path[-1]:
            continue
        rel = _relative_path(node, record_node)
        if rel is not None and _path_ends_with(rel, rule.rel_path):
            matches.append(node)
    if rule.index < len(matches):
        return matches[rule.index]
    return None


def old_rule_extract(rule: FieldRule, record_node: DomNode) -> object | None:
    node = old_select(rule, record_node)
    if node is None:
        return None
    if rule.attr_source is not None:
        raw = node.attrs.get(rule.attr_source)
        return raw if raw else None
    text = old_text(node)
    if not text:
        return None
    if rule.recogniser_name is not None:
        return recogniser(rule.recogniser_name).find(text)
    return text


def old_record_nodes(wrapper: Wrapper, root: DomNode) -> list[DomNode]:
    return [
        node
        for node in old_elements(root)
        if old_signature(node) == wrapper.record_path[-1]
        and _path_ends_with(old_path(node), wrapper.record_path)
    ]


def old_extract_document(wrapper: Wrapper, document: Document) -> list[Record]:
    root = parse_html(document.html)
    provenance = Provenance.source(wrapper.source).derive(
        Step.EXTRACTION, wrapper.wrapper_id
    )
    records = []
    for node in old_record_nodes(wrapper, root):
        cells: dict[str, Value] = {}
        for rule in wrapper.rules:
            raw = old_rule_extract(rule, node)
            cells[rule.attribute] = Value(
                raw,
                rule.dtype,
                min(wrapper.confidence, rule.confidence),
                provenance,
            )
        if any(not value.is_missing for value in cells.values()):
            records.append(Record.of(cells, source=wrapper.source))
    return records


def old_extract(wrapper: Wrapper, documents: Sequence[Document]) -> Table:
    table = Table(wrapper.source, wrapper.schema())
    for document in documents:
        table.extend(old_extract_document(wrapper, document))
    return table


# -- the parent commit's induction.py ---------------------------------------


def _find_value_candidates(root: DomNode, value: str) -> list[DomNode]:
    wanted = _normalise(value)
    if not wanted:
        return []
    exact: list[DomNode] = []
    containing: list[DomNode] = []
    for node in old_elements(root):
        text = _normalise(old_text(node))
        if not text:
            continue
        if text == wanted:
            exact.append(node)
        elif wanted in text:
            containing.append(node)
    if exact:
        return sorted(exact, key=lambda n: -n.depth())
    return sorted(containing, key=lambda n: len(old_text(n)))


def _relative_signature_path(
    node: DomNode, ancestor: DomNode
) -> tuple[str, ...]:
    steps: list[str] = []
    current: DomNode | None = node
    while current is not None and current is not ancestor:
        if current.tag != "#text":
            steps.append(old_signature(current))
        current = current.parent
    return tuple(reversed(steps))


def old_induce_wrapper(
    documents: Sequence[Document],
    examples: Sequence[ExampleAnnotation],
    source: str | None = None,
) -> Wrapper:
    if not examples:
        raise ExtractionError("wrapper induction needs at least one example")
    pages = {doc.url: doc for doc in documents}
    record_paths: list[tuple[str, ...]] = []
    field_observations: dict[str, list[tuple[tuple[str, ...], int, str, str]]] = {}

    for example in examples:
        if example.url not in pages:
            raise ExtractionError(f"no document for example url {example.url!r}")
        root = parse_html(pages[example.url].html)
        candidates: dict[str, list[DomNode]] = {}
        for attribute, value in example.fields.items():
            found = _find_value_candidates(root, value)
            if found:
                candidates[attribute] = found
        if not candidates:
            continue
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
        if record_node in nodes.values() and record_node.parent is not None:
            record_node = record_node.parent
        record_paths.append(old_path(record_node))
        for attribute, node in nodes.items():
            rel = _relative_signature_path(node, record_node)
            siblings = []
            for candidate in old_elements(record_node):
                if candidate is record_node or not rel:
                    continue
                if old_signature(candidate) != rel[-1]:
                    continue
                rel_c = _relative_signature_path(candidate, record_node)
                if rel_c[len(rel_c) - len(rel):] == rel:
                    siblings.append(candidate)
            index = next(
                (i for i, cand in enumerate(siblings) if cand is node), 0
            )
            node_text = _normalise(old_text(node))
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
        index = int(_majority([obs[1] for obs in observations]))
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
        source or (documents[0].source if documents else "unknown"),
        record_path,
        tuple(sorted(rules, key=lambda r: r.attribute)),
    )
    return wrapper.with_confidence(
        old_induction_confidence(wrapper, pages, examples)
    )


def old_induction_confidence(
    wrapper: Wrapper,
    pages: Mapping[str, Document],
    examples: Sequence[ExampleAnnotation],
) -> float:
    checked = 0
    correct = 0
    for example in examples:
        document = pages.get(example.url)
        if document is None:
            continue
        extracted = old_extract_document(wrapper, document)
        for attribute, value in example.fields.items():
            checked += 1
            wanted = _normalise(value)
            for record in extracted:
                raw = record.raw(attribute)
                if raw is None:
                    continue
                got = _normalise(str(raw))
                if got == wanted or wanted in got or got in wanted:
                    correct += 1
                    break
    if checked == 0:
        return 0.0
    return correct / checked


def old_auto_induce(
    documents: Sequence[Document],
    source: str | None = None,
    min_records: int = 3,
) -> Wrapper:
    if not documents:
        raise ExtractionError("auto induction needs at least one document")
    root = parse_html(documents[0].html)
    groups: dict[tuple[str, ...], list[DomNode]] = {}
    for node in old_elements(root):
        if node.tag in ("html", "body", "head", "#document"):
            continue
        groups.setdefault(old_path(node), []).append(node)
    candidates = {
        path: nodes
        for path, nodes in groups.items()
        if len(nodes) >= min_records and any(old_text(n) for n in nodes)
    }
    if not candidates:
        raise ExtractionError(
            f"no repeating structure with >= {min_records} instances found"
        )

    def richness(item: tuple[tuple[str, ...], list[DomNode]]) -> tuple[int, int]:
        path, nodes = item
        distinct_children = len(
            {
                old_signature(child)
                for node in nodes
                for child in old_elements(node)
                if child is not node
            }
        )
        return (distinct_children, len(nodes))

    record_sig_path, record_nodes = max(candidates.items(), key=richness)

    slot_counts: dict[tuple[tuple[str, ...], int], int] = {}
    slot_samples: dict[tuple[tuple[str, ...], int], list[str]] = {}
    for node in record_nodes:
        occurrence: dict[tuple[str, ...], int] = {}
        for descendant in old_elements(node):
            if descendant is node:
                continue
            has_own_text = any(
                child.tag == "#text" and child.text_content.strip()
                for child in descendant.children
            )
            if not has_own_text:
                continue
            rel = _relative_signature_path(descendant, node)
            index = occurrence.get(rel, 0)
            occurrence[rel] = index + 1
            slot = (rel, index)
            slot_counts[slot] = slot_counts.get(slot, 0) + 1
            slot_samples.setdefault(slot, []).append(old_text(descendant))
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
    wrapper = Wrapper(
        source or documents[0].source,
        record_sig_path[-1:],
        tuple(rules),
    )
    fires = 0
    slots = 0
    for node in record_nodes:
        for rule in rules:
            slots += 1
            if old_rule_extract(rule, node) is not None:
                fires += 1
    return wrapper.with_confidence(fires / slots if slots else 0.0)


# -- the parent commit's repair.py (diagnosis helpers are inherited) --------


class OldRepairer(WrapperRepairer):
    def validity(self, table: Table) -> dict[str, float]:
        scores: dict[str, float] = {}
        for attribute in table.schema.names:
            expected = self.expected_dtype(attribute, table.schema[attribute].dtype)
            values = [v.raw for v in table.column(attribute) if not v.is_missing]
            if not values:
                scores[attribute] = 1.0
                continue
            valid = sum(
                1 for raw in values if self._value_valid(attribute, raw, expected)
            )
            scores[attribute] = valid / len(values)
        return scores

    def repair(self, wrapper, documents):
        table = old_extract(wrapper, documents)
        before = self.validity(table)
        actions: list[RepairAction] = []

        wrapper = self._old_segmentation(wrapper, documents, before, actions)
        wrapper = self._old_swaps(wrapper, documents, actions)
        wrapper = self._old_discover(wrapper, documents, actions)

        table = old_extract(wrapper, documents)
        table, value_actions = self._old_values(table)
        actions.extend(value_actions)

        after = self.validity(table)
        return wrapper, table, RepairReport(actions, before, after)

    def _old_segmentation(self, wrapper, documents, validity, actions):
        for rule in list(wrapper.rules):
            score = validity.get(rule.attribute, 1.0)
            if score >= self.min_validity:
                continue
            expected = self.expected_dtype(rule.attribute, rule.dtype)
            rec_name = _RECOGNISER_FOR_DTYPE.get(expected)
            if rec_name is None or rule.recogniser_name == rec_name:
                continue
            candidate = wrapper.with_rule(
                FieldRule(
                    rule.attribute,
                    rule.rel_path,
                    rule.index,
                    recogniser_name=rec_name,
                    attr_source=rule.attr_source,
                    dtype=expected,
                )
            )
            old_table = old_extract(wrapper, documents)
            new_table = old_extract(candidate, documents)
            old_yield = sum(
                1 for v in old_table.column(rule.attribute) if not v.is_missing
            )
            new_yield = sum(
                1 for v in new_table.column(rule.attribute) if not v.is_missing
            )
            new_validity = self.validity(new_table)
            if new_yield < max(1, old_yield // 2):
                continue
            if new_validity.get(rule.attribute, 0.0) > score:
                wrapper = candidate
                actions.append(
                    RepairAction(
                        "segment",
                        rule.attribute,
                        f"attached recogniser {rec_name!r} "
                        f"(validity {score:.2f} -> "
                        f"{new_validity[rule.attribute]:.2f})",
                    )
                )
        return wrapper

    def _old_swaps(self, wrapper, documents, actions):
        table = old_extract(wrapper, documents)
        validity = self.validity(table)
        attributes = [
            rule.attribute
            for rule in wrapper.rules
            if validity.get(rule.attribute, 1.0) < self.min_validity
        ]
        for i, attr_a in enumerate(attributes):
            for attr_b in attributes[i + 1:]:
                rule_a = wrapper.rule_for(attr_a)
                rule_b = wrapper.rule_for(attr_b)
                if rule_a is None or rule_b is None:
                    continue
                swapped = wrapper.with_rule(
                    FieldRule(
                        attr_a, rule_b.rel_path, rule_b.index,
                        rule_b.recogniser_name, rule_b.attr_source, rule_a.dtype,
                    )
                ).with_rule(
                    FieldRule(
                        attr_b, rule_a.rel_path, rule_a.index,
                        rule_a.recogniser_name, rule_a.attr_source, rule_b.dtype,
                    )
                )
                new_validity = self.validity(old_extract(swapped, documents))
                old = validity.get(attr_a, 0.0) + validity.get(attr_b, 0.0)
                new = new_validity.get(attr_a, 0.0) + new_validity.get(attr_b, 0.0)
                if new > old:
                    wrapper = swapped
                    validity = new_validity
                    actions.append(
                        RepairAction(
                            "swap",
                            f"{attr_a}<->{attr_b}",
                            f"swapped rule paths (validity {old:.2f} -> {new:.2f})",
                        )
                    )
        return wrapper

    def _old_discover(self, wrapper, documents, actions, min_hit_rate=0.7):
        table = old_extract(wrapper, documents)
        existing = {
            rule.recogniser_name for rule in wrapper.rules
            if rule.recogniser_name
        } | {
            _RECOGNISER_FOR_DTYPE.get(rule.dtype) for rule in wrapper.rules
        }
        for rule in list(wrapper.rules):
            if rule.dtype is not DataType.STRING or rule.attr_source:
                continue
            values = [
                str(v.raw)
                for v in table.column(rule.attribute)
                if not v.is_missing
            ]
            if len(values) < 3:
                continue
            found = [recognise(value) for value in values]
            candidates: dict[str, int] = {}
            for hits in found:
                for name in hits:
                    candidates[name] = candidates.get(name, 0) + 1
            for rec_name, hits in sorted(candidates.items()):
                if rec_name in existing or rec_name in (
                    r.attribute for r in wrapper.rules
                ):
                    continue
                if hits / len(values) < min_hit_rate:
                    continue
                if rec_name not in _RECOGNISER_FOR_DTYPE.values():
                    continue
                rec = recogniser(rec_name)
                wrapper = wrapper.with_rule(
                    FieldRule(
                        rec_name,
                        rule.rel_path,
                        rule.index,
                        recogniser_name=rec_name,
                        dtype=rec.dtype,
                    )
                )
                existing.add(rec_name)
                actions.append(
                    RepairAction(
                        "discover",
                        rec_name,
                        f"found {rec_name} embedded in {rule.attribute!r} "
                        f"({hits}/{len(values)} values)",
                    )
                )
        return wrapper

    def _old_values(self, table):
        actions: list[RepairAction] = []
        repaired_counts: dict[str, int] = {}
        expected_types = {
            attribute: self.expected_dtype(attribute, table.schema[attribute].dtype)
            for attribute in table.schema.names
        }

        def fix(record):
            updates = {}
            for attribute in table.schema.names:
                value = record.get(attribute)
                if value.is_missing:
                    continue
                expected = expected_types[attribute]
                if self._value_valid(attribute, value.raw, expected):
                    continue
                rec_name = _RECOGNISER_FOR_DTYPE.get(expected)
                if rec_name is None:
                    continue
                found = recogniser(rec_name).find(str(value.raw))
                if found is None:
                    continue
                updates[attribute] = value.with_raw(
                    found, Step.REPAIR, f"value-repair:{rec_name}"
                )
                repaired_counts[attribute] = repaired_counts.get(attribute, 0) + 1
            if updates:
                return record.with_cells(updates)
            return record

        repaired = table.map_records(fix)
        for attribute, count in sorted(repaired_counts.items()):
            actions.append(
                RepairAction(
                    "value", attribute, f"re-segmented {count} stored values"
                )
            )
        return repaired, actions


# -- the matrix -------------------------------------------------------------

INDUCTIONS = ("annotated", "auto")
DEFECTS = ("as-induced", "price-in-title", "swapped-columns")
#: The default, and the bar at which no wrapper repair is tried and the
#: stored values are all there is left to repair.
MIN_VALIDITIES = (0.7, 0.0)


def site_for(template: str, defect: str):
    listings = random_listings(45, random.Random(TEMPLATES.index(template) + 24))
    if defect == "price-in-title":
        for listing in listings:
            listing["product"] = f'{listing["product"]} now {listing["price"]}'
    return render_site(f"{template}shop", listings, template, page_size=15)


def induced(site, induction: str, old: bool) -> Wrapper:
    documents = site.documents()
    if induction == "annotated":
        induce = old_induce_wrapper if old else induce_wrapper
        return induce(documents, annotations_for(site, count=3))
    return (old_auto_induce if old else auto_induce)(documents)


def with_defect(wrapper: Wrapper, defect: str) -> Wrapper | None:
    """``wrapper`` as a careless induction would have left it, or
    ``None`` when it has no rules the defect is about."""
    if defect == "as-induced":
        return wrapper
    title = wrapper.rule_for("product") or wrapper.rule_for("text_0")
    if defect == "price-in-title":
        # The price read off the node that holds the title, unsegmented.
        return wrapper.with_rule(
            FieldRule(
                "price", title.rel_path, title.index, dtype=DataType.CURRENCY
            )
        )
    price = wrapper.rule_for("price")
    date = wrapper.rule_for("updated") or wrapper.rule_for("date")
    if price is None or date is None:
        return None
    return wrapper.with_rule(
        FieldRule(
            price.attribute, date.rel_path, date.index,
            date.recogniser_name, date.attr_source, price.dtype,
        )
    ).with_rule(
        FieldRule(
            date.attribute, price.rel_path, price.index,
            price.recogniser_name, price.attr_source, date.dtype,
        )
    )


def program(wrapper: Wrapper) -> tuple:
    """Everything a wrapper is, ``wrapper_id`` aside."""
    return (wrapper.source, wrapper.record_path, wrapper.rules, wrapper.confidence)


@pytest.fixture()
def context():
    return DataContext("products").with_ontology(product_ontology())


class TestPagesMatchTheParentCommit:
    @pytest.mark.parametrize("induction", INDUCTIONS)
    @pytest.mark.parametrize("template", TEMPLATES)
    def test_induction_rule_for_rule(self, template, induction):
        for defect in ("as-induced", "price-in-title"):
            site = site_for(template, defect)
            new = induced(site, induction, old=False)
            assert new.rules
            assert program(new) == program(induced(site, induction, old=True))

    @pytest.mark.parametrize("min_validity", MIN_VALIDITIES)
    @pytest.mark.parametrize("defect", DEFECTS)
    @pytest.mark.parametrize("induction", INDUCTIONS)
    @pytest.mark.parametrize("template", TEMPLATES)
    def test_extraction_and_repair(
        self, template, induction, defect, min_validity, context
    ):
        site = site_for(template, defect)
        documents = site.documents()
        wrapper = with_defect(induced(site, induction, old=False), defect)
        if wrapper is None:
            pytest.skip(f"{induction} wrapper on {template!r} has no price/date pair")
        assert table_fingerprint(wrapper.extract(documents)) == (
            table_fingerprint(old_extract(wrapper, documents))
        )
        new_wrapper, new_table, new_report = WrapperRepairer(
            context, min_validity
        ).repair(wrapper, documents)
        old_wrapper, old_table, old_report = OldRepairer(
            context, min_validity
        ).repair(wrapper, documents)
        assert program(new_wrapper) == program(old_wrapper)
        assert new_report.actions == old_report.actions
        assert new_report.validity_before == old_report.validity_before
        assert new_report.validity_after == old_report.validity_after
        assert len(new_table) == len(old_table) > 0
        assert table_fingerprint(new_table) == table_fingerprint(old_table)

    def test_the_matrix_reaches_every_kind_of_repair(self, context):
        kinds = set()
        for template in TEMPLATES:
            for induction in INDUCTIONS:
                for defect in DEFECTS:
                    site = site_for(template, defect)
                    wrapper = with_defect(induced(site, induction, old=False), defect)
                    if wrapper is None:
                        continue
                    for min_validity in MIN_VALIDITIES:
                        report = WrapperRepairer(context, min_validity).repair(
                            wrapper, site.documents()
                        )[2]
                        kinds |= {action.kind for action in report.actions}
        assert kinds == {"segment", "swap", "discover", "value"}

    def test_a_shared_page_set_changes_nothing(self, context):
        site = site_for("messy", "as-induced")
        pages = Pages.of(site.documents())
        assert Pages.of(pages) is pages
        shared = WrapperRepairer(context).repair(auto_induce(pages), pages)
        apart = WrapperRepairer(context).repair(
            auto_induce(site.documents()), site.documents()
        )
        assert program(shared[0]) == program(apart[0])
        assert shared[2] == apart[2]
        assert table_fingerprint(shared[1]) == table_fingerprint(apart[1])


# -- lifetime ---------------------------------------------------------------


def live_dom_nodes(but: Sequence[DomNode] = ()) -> list[DomNode]:
    """Every ``DomNode`` anything in the process still references,
    ``but`` those (another test module's fixtures) aside."""
    gc.collect()
    known = {id(node) for node in but}
    return [
        obj for obj in gc.get_objects()
        if isinstance(obj, DomNode) and id(obj) not in known
    ]


class TestParsedPagesDieWithTheStageCall:
    def test_no_dom_node_outlives_a_run(self):
        others = live_dom_nodes()
        user = UserContext.precision_first("u", TARGET_SCHEMA)
        data = DataContext("products").with_ontology(product_ontology())
        wrangler = Wrangler(user, data, today=datetime.date(2016, 3, 15))
        for index, template in enumerate(TEMPLATES):
            site = render_site(
                f"shop-{template}",
                random_listings(30, random.Random(index)),
                template,
                page_size=10,
            )
            wrangler.add_source(MemoryDocumentSource(site.name, site.pages))
            if template != "messy":
                wrangler.annotate_examples(site.name, annotations_for(site, 2))
        result = wrangler.run()
        assert len(result.table) > 0
        assert wrangler.working.keys("wrapper")
        # The wrangler, its working data (wrappers, repair reports, raw
        # tables) and the result are all still referenced from here.
        assert live_dom_nodes(but=others) == []

    def test_a_page_set_is_what_keeps_them(self):
        others = live_dom_nodes()
        pages = Pages.of(site_for("grid", "as-induced").documents())
        auto_induce(pages).extract(pages)
        assert live_dom_nodes(but=others)
        del pages
        assert live_dom_nodes(but=others) == []
