"""Joint wrapper and data repair, after WADaR (Ortona et al., PVLDB 2015).

Section 4.1: "existing knowledge bases and intermediate products of data
cleaning and integration processes can be used to improve the quality of
wrapper induction".  Here the data context diagnoses extraction defects —
mis-segmented fields (the price stuck inside the title), swapped columns,
type-violating values — and repairs **both** the wrapper (so future
extractions are right) and the already-extracted data (so this run is
right), recording every change.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.context.data_context import DataContext
from repro.errors import TypeInferenceError
from repro.extraction.patterns import recognise, recogniser
from repro.extraction.dom import DomNode
from repro.extraction.wrapper import FieldRule, Pages, Wrapper
from repro.model.provenance import Step
from repro.model.records import Table
from repro.model.schema import DataType, coerce
from repro.sources.base import Document

__all__ = ["RepairAction", "RepairReport", "WrapperRepairer"]

#: Which recogniser re-segments values of a given expected type.
_RECOGNISER_FOR_DTYPE = {
    DataType.CURRENCY: "price",
    DataType.DATE: "date",
    DataType.URL: "url",
    DataType.GEO: "geo",
    DataType.FLOAT: "rating",
}


def _present(raws: Sequence[object]) -> list[object]:
    """The raws a :class:`~repro.model.values.Value` would not call missing."""
    return [
        raw for raw in raws
        if raw is not None and not (isinstance(raw, str) and not raw.strip())
    ]


@dataclass(frozen=True)
class RepairAction:
    """One repair applied to a wrapper or to extracted data."""

    kind: str  # "segment" | "swap" | "discover" | "value"
    attribute: str
    detail: str


@dataclass
class RepairReport:
    """Everything a repair pass did, with before/after validity."""

    actions: list[RepairAction]
    validity_before: dict[str, float]
    validity_after: dict[str, float]


class WrapperRepairer:
    """Diagnoses and repairs a wrapper against the data context."""

    def __init__(self, context: DataContext, min_validity: float = 0.7) -> None:
        self.context = context
        self.min_validity = min_validity

    # -- diagnosis ----------------------------------------------------------

    def expected_dtype(self, attribute: str, declared: DataType) -> DataType:
        """The type an attribute *should* have, preferring the ontology."""
        if self.context.ontology is not None:
            expected = self.context.ontology.expected_dtype(attribute)
            if expected is not None:
                return expected
        return declared

    def _value_valid(self, attribute: str, raw: object, expected: DataType) -> bool:
        if raw is None:
            return True  # missing is a completeness issue, not a validity one
        try:
            coerce(raw, expected)
        except TypeInferenceError:
            return False
        vocabulary = self.context.vocabulary(attribute)
        if vocabulary and raw not in vocabulary:
            return False
        return True

    def validity(self, table: Table) -> dict[str, float]:
        """Per-attribute fraction of values consistent with the context."""
        return {
            attribute: self._column_validity(
                attribute,
                table.schema[attribute].dtype,
                table.raw_column(attribute),
            )
            for attribute in table.schema.names
        }

    def _column_validity(
        self, attribute: str, declared: DataType, raws: Sequence[object]
    ) -> float:
        """:meth:`validity` of one column; each distinct value is
        checked against the context once."""
        expected = self.expected_dtype(attribute, declared)
        values = _present(raws)
        if not values:
            return 1.0
        # 1, 1.0 and True are equal and hash alike but do not coerce alike.
        counts = Counter((type(raw), raw) for raw in values)
        valid = sum(
            count
            for (__, raw), count in counts.items()
            if self._value_valid(attribute, raw, expected)
        )
        return valid / len(values)

    # -- repair -----------------------------------------------------------

    def repair(
        self, wrapper: Wrapper, documents: Sequence[Document]
    ) -> tuple[Wrapper, Table, RepairReport]:
        """Repair ``wrapper`` against ``documents`` and the data context.

        Returns the (possibly) repaired wrapper, the table extracted with
        it (with residual bad values value-repaired), and the report.

        A candidate repair changes one or two rules, and a column's
        validity depends on nothing but that column: candidates are
        scored from the columns they change, read off the record nodes,
        and only ``before`` and the result are built as tables.
        """
        pages = Pages.of(documents)
        given = wrapper
        table = wrapper.extract(pages)
        before = self.validity(table)
        nodes = pages.site_record_nodes(wrapper)
        actions: list[RepairAction] = []

        validity = dict(before)
        wrapper = self._repair_segmentation(wrapper, pages, nodes, validity, actions)
        wrapper = self._repair_swaps(wrapper, pages, nodes, validity, actions)
        wrapper = self._discover_embedded_fields(wrapper, pages, nodes, actions)

        if wrapper is not given:
            table = wrapper.extract(pages)
        table, value_actions = self._repair_values(table)
        actions.extend(value_actions)

        after = self.validity(table)
        return wrapper, table, RepairReport(actions, before, after)

    def _repair_segmentation(
        self,
        wrapper: Wrapper,
        pages: Pages,
        nodes: Sequence[DomNode],
        validity: dict[str, float],
        actions: list[RepairAction],
    ) -> Wrapper:
        """Attach recognisers to rules whose values embed the real field,
        keeping ``validity`` in step with the wrapper returned."""
        for rule in list(wrapper.rules):
            score = validity.get(rule.attribute, 1.0)
            if score >= self.min_validity:
                continue
            expected = self.expected_dtype(rule.attribute, rule.dtype)
            rec_name = _RECOGNISER_FOR_DTYPE.get(expected)
            if rec_name is None or rule.recogniser_name == rec_name:
                continue
            candidate = FieldRule(
                rule.attribute,
                rule.rel_path,
                rule.index,
                recogniser_name=rec_name,
                attr_source=rule.attr_source,
                dtype=expected,
            )
            column = pages.column(candidate, nodes)
            old_yield = len(_present(pages.column(rule, nodes)))
            # A repair that silences the column is not a repair: require the
            # recogniser to keep at least half of the previous yield.
            if len(_present(column)) < max(1, old_yield // 2):
                continue
            new_score = self._column_validity(rule.attribute, expected, column)
            if new_score > score:
                wrapper = wrapper.with_rule(candidate)
                validity[rule.attribute] = new_score
                actions.append(
                    RepairAction(
                        "segment",
                        rule.attribute,
                        f"attached recogniser {rec_name!r} "
                        f"(validity {score:.2f} -> {new_score:.2f})",
                    )
                )
        return wrapper

    def _repair_swaps(
        self,
        wrapper: Wrapper,
        pages: Pages,
        nodes: Sequence[DomNode],
        validity: dict[str, float],
        actions: list[RepairAction],
    ) -> Wrapper:
        """Swap rule paths when two attributes validate better crosswise."""
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
                swapped_a = FieldRule(
                    attr_a, rule_b.rel_path, rule_b.index,
                    rule_b.recogniser_name, rule_b.attr_source, rule_a.dtype,
                )
                swapped_b = FieldRule(
                    attr_b, rule_a.rel_path, rule_a.index,
                    rule_a.recogniser_name, rule_a.attr_source, rule_b.dtype,
                )
                # The two columns as already read, under each other's name.
                new_a = self._column_validity(
                    attr_a, rule_a.dtype, pages.column(swapped_a, nodes)
                )
                new_b = self._column_validity(
                    attr_b, rule_b.dtype, pages.column(swapped_b, nodes)
                )
                old = validity.get(attr_a, 0.0) + validity.get(attr_b, 0.0)
                new = new_a + new_b
                if new > old:
                    wrapper = wrapper.with_rule(swapped_a).with_rule(swapped_b)
                    validity[attr_a], validity[attr_b] = new_a, new_b
                    actions.append(
                        RepairAction(
                            "swap",
                            f"{attr_a}<->{attr_b}",
                            f"swapped rule paths (validity {old:.2f} -> {new:.2f})",
                        )
                    )
        return wrapper

    def _discover_embedded_fields(
        self,
        wrapper: Wrapper,
        pages: Pages,
        nodes: Sequence[DomNode],
        actions: list[RepairAction],
        min_hit_rate: float = 0.7,
    ) -> Wrapper:
        """Add rules for recognisable fields hiding inside text blobs.

        A fully automatic wrapper over a messy layout often captures
        "Acme TV — now only £219.50 (in stock)" as one text field; if a
        recogniser fires inside most values of such a field and no
        existing rule produces that field type, a new rule is synthesised
        on the same path.  This is the "identify previously unknown
        [fields]" half of context-informed extraction (Example 3).
        """
        existing = {
            rule.recogniser_name for rule in wrapper.rules
            if rule.recogniser_name
        } | {
            _RECOGNISER_FOR_DTYPE.get(rule.dtype) for rule in wrapper.rules
        }
        for rule in list(wrapper.rules):
            if rule.dtype is not DataType.STRING or rule.attr_source:
                continue
            values = [str(raw) for raw in _present(pages.column(rule, nodes))]
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
                    continue  # only promote high-precision field types
                wrapper = wrapper.with_rule(
                    FieldRule(
                        rec_name,
                        rule.rel_path,
                        rule.index,
                        recogniser_name=rec_name,
                        dtype=recogniser(rec_name).dtype,
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

    def _repair_values(
        self, table: Table
    ) -> tuple[Table, list[RepairAction]]:
        """Last-resort per-value repair for residual violations."""
        # Per attribute a recogniser can re-segment: what it finds in
        # each distinct value the context rejects.
        fixes: dict[str, tuple[str, dict[tuple[type, object], object]]] = {}
        for attribute in table.schema.names:
            expected = self.expected_dtype(attribute, table.schema[attribute].dtype)
            rec_name = _RECOGNISER_FOR_DTYPE.get(expected)
            if rec_name is None:
                continue
            found = {}
            for raw in _present(table.raw_column(attribute)):
                key = (type(raw), raw)
                if key not in found:
                    found[key] = (
                        None
                        if self._value_valid(attribute, raw, expected)
                        else recogniser(rec_name).find(str(raw))
                    )
            if any(segment is not None for segment in found.values()):
                fixes[attribute] = (rec_name, found)
        repaired_counts = dict.fromkeys(fixes, 0)

        def fix(record):  # type: ignore[no-untyped-def]
            updates = {}
            for attribute, (rec_name, found) in fixes.items():
                value = record.get(attribute)
                segment = found.get((type(value.raw), value.raw))
                if segment is None:
                    continue
                updates[attribute] = value.with_raw(
                    segment, Step.REPAIR, f"value-repair:{rec_name}"
                )
                repaired_counts[attribute] += 1
            if updates:
                return record.with_cells(updates)
            return record

        repaired = table.map_records(fix) if fixes else table
        actions = [
            RepairAction("value", attribute, f"re-segmented {count} stored values")
            for attribute, count in sorted(repaired_counts.items())
        ]
        return repaired, actions
