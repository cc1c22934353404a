"""Schema mappings: executable translations into the target schema.

A :class:`Mapping` reshapes one source table into the user context's
target schema — projection, renaming, and type normalisation — while
preserving per-cell provenance (a ``MAPPING`` step is appended) and
discounting confidence by the certainty of the underlying correspondences.
"This is the paper's "tentative ... mappings" made explicit: a mapping is
an uncertain artifact with a confidence, not a trusted program.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.errors import MappingError, TypeInferenceError
from repro.matching.schema_matching import Correspondence
from repro.model.provenance import Step
from repro.model.records import Record, Table
from repro.model.schema import Schema, coerce
from repro.model.values import MISSING, Value

if TYPE_CHECKING:  # typing only
    from repro.obs import MetricsRegistry

__all__ = ["AttributeMap", "Mapping"]

_mapping_counter = itertools.count(1)


@dataclass(frozen=True)
class AttributeMap:
    """One target attribute's derivation from a source attribute."""

    target: str
    source: str
    confidence: float = 1.0


@dataclass(frozen=True)
class Mapping:
    """An executable, uncertain schema mapping for one source."""

    source_name: str
    target_schema: Schema
    attribute_maps: tuple[AttributeMap, ...]
    confidence: float = 1.0
    mapping_id: str = field(
        default_factory=lambda: f"mapping-{next(_mapping_counter)}"
    )

    @classmethod
    def from_correspondences(
        cls,
        source_name: str,
        target_schema: Schema,
        correspondences: Sequence[Correspondence],
    ) -> "Mapping":
        """Build a mapping from matcher output.

        The mapping's confidence is the mean correspondence confidence over
        the *required* target attributes it covers (uncovered required
        attributes pull it down to reflect incompleteness).
        """
        maps = tuple(
            AttributeMap(c.target_attribute, c.source_attribute, c.confidence)
            for c in correspondences
        )
        covered = {m.target for m in maps}
        required = [a.name for a in target_schema if a.required]
        scores = [m.confidence for m in maps]
        for name in required:
            if name not in covered:
                scores.append(0.0)
        confidence = sum(scores) / len(scores) if scores else 0.0
        return cls(source_name, target_schema, maps, confidence)

    def covered_attributes(self) -> frozenset[str]:
        """Target attributes this mapping populates."""
        return frozenset(m.target for m in self.attribute_maps)

    def coverage(self) -> float:
        """Fraction of the target schema this mapping populates."""
        if not len(self.target_schema):
            return 1.0
        return len(self.covered_attributes()) / len(self.target_schema)

    def covers_required(self) -> bool:
        """Whether every required target attribute is populated."""
        covered = self.covered_attributes()
        return all(
            attr.name in covered for attr in self.target_schema if attr.required
        )

    def map_for(self, target: str) -> AttributeMap | None:
        """The attribute map producing ``target``, if any."""
        for attribute_map in self.attribute_maps:
            if attribute_map.target == target:
                return attribute_map
        return None

    def apply_record(self, record: Record) -> Record:
        """Translate one record into the target schema."""
        cells: dict[str, Value] = {}
        for attribute in self.target_schema:
            attribute_map = self.map_for(attribute.name)
            if attribute_map is None:
                cells[attribute.name] = MISSING
                continue
            value = record.get(attribute_map.source)
            if value.is_missing:
                cells[attribute.name] = MISSING
                continue
            raw = value.raw
            confidence_penalty = 1.0
            try:
                raw = coerce(raw, attribute.dtype)
            except TypeInferenceError:
                # Keep the raw value but flag it as dubious; the quality
                # component will surface it rather than silently dropping it.
                confidence_penalty = 0.5
            cells[attribute.name] = Value(
                raw,
                attribute.dtype,
                min(
                    1.0,
                    value.confidence
                    * attribute_map.confidence
                    * confidence_penalty,
                ),
                value.provenance.derive(Step.MAPPING, self.mapping_id),
            )
        # Carry evaluation-only lineage columns through untouched.
        for name, value in record.cells.items():
            if name.startswith("_"):
                cells[name] = value
        return Record(record.rid, record.source, cells)

    def apply(
        self,
        table: Table,
        previous: "tuple[Mapping, Table, Table] | None" = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> Table:
        """Translate a whole table into the target schema.

        ``previous`` is an earlier apply: ``(mapping, table, translated)``.
        When its mapping is this very object, a record of ``table`` that
        is an object of the earlier input keeps the record translated
        from it — translation reads nothing but the mapping and the
        record.  Kept records are counted on ``mapping.records_reused``.
        """
        if table.name != self.source_name:
            raise MappingError(
                f"mapping {self.mapping_id} is for source "
                f"{self.source_name!r}, not {table.name!r}"
            )
        kept: dict[int, Record] = {}
        if previous is not None and previous[0] is self:
            # id() is safe: ``previous`` keeps the earlier input alive.
            kept = {
                id(record): translated
                for record, translated in zip(previous[1], previous[2])
            }
        records = [
            kept.get(id(record)) or self.apply_record(record)
            for record in table.records
        ]
        if metrics is not None:
            metrics.counter("mapping.records_reused").increment(
                sum(id(record) in kept for record in table.records)
            )
        return Table(self.source_name, self.target_schema, records)

    def describe(self) -> str:
        """A readable ``target <- source`` summary."""
        parts = ", ".join(
            f"{m.target}<-{m.source}({m.confidence:.2f})"
            for m in self.attribute_maps
        )
        return (
            f"mapping {self.mapping_id} [{self.source_name}] "
            f"confidence={self.confidence:.2f}: {parts}"
        )
