"""Records and tables — the relational backbone of the working data.

A :class:`Table` is an immutable-schema, append-friendly collection of
:class:`Record` objects whose cells are annotated :class:`Value` instances.
Tables are what sources emit, what extraction produces from documents, what
mappings translate, and what integration fuses; every transformation
preserves per-cell confidence and provenance.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import SchemaError
from repro.model.provenance import Provenance
from repro.model.schema import Attribute, DataType, Schema, infer_types
from repro.model.values import MISSING, Value

__all__ = ["Record", "Table"]

_record_counter = itertools.count(1)


def _next_rid(prefix: str) -> str:
    return f"{prefix}-{next(_record_counter)}"


@dataclass(frozen=True)
class Record:
    """One row: a record id, the source it came from, and named cells."""

    rid: str
    source: str
    cells: Mapping[str, Value]

    @classmethod
    def of(
        cls,
        fields: Mapping[str, Any],
        source: str = "memory",
        rid: str | None = None,
        provenance: Provenance | None = None,
        confidence: float = 1.0,
    ) -> "Record":
        """Build a record from raw field values.

        Raw values are wrapped into :class:`Value` cells sharing one
        provenance leaf (the record's source) unless they already are
        :class:`Value` instances.
        """
        if provenance is None:
            provenance = Provenance.source(source)
        cells = {
            name: (
                value
                if isinstance(value, Value)
                else Value.of(value, provenance, confidence)
            )
            for name, value in fields.items()
        }
        return cls(rid or _next_rid(source), source, cells)

    def __getitem__(self, name: str) -> Value:
        return self.cells.get(name, MISSING)

    def get(self, name: str) -> Value:
        """The cell named ``name``, or :data:`MISSING`."""
        return self.cells.get(name, MISSING)

    def raw(self, name: str) -> Any:
        """The raw payload of cell ``name`` (``None`` when missing)."""
        return self.cells[name].raw if name in self.cells else None

    def to_dict(self) -> dict[str, Any]:
        """Plain ``{name: raw}`` view of the record."""
        return {name: value.raw for name, value in self.cells.items()}

    def with_cell(self, name: str, value: Value) -> "Record":
        """A copy of the record with one cell replaced or added."""
        cells = dict(self.cells)
        cells[name] = value
        return Record(self.rid, self.source, cells)

    def with_cells(self, updates: Mapping[str, Value]) -> "Record":
        """A copy of the record with several cells replaced or added."""
        cells = dict(self.cells)
        cells.update(updates)
        return Record(self.rid, self.source, cells)

    def project(self, names: Sequence[str]) -> "Record":
        """A copy restricted to the cells in ``names``."""
        return Record(
            self.rid,
            self.source,
            {name: self.cells[name] for name in names if name in self.cells},
        )

    def completeness(self, names: Sequence[str]) -> float:
        """Fraction of ``names`` that carry a non-missing cell."""
        if not names:
            return 1.0
        present = sum(1 for name in names if not self.get(name).is_missing)
        return present / len(names)

    def mean_confidence(self) -> float:
        """Average confidence over non-missing cells (1.0 if all missing)."""
        confs = [v.confidence for v in self.cells.values() if not v.is_missing]
        if not confs:
            return 1.0
        return sum(confs) / len(confs)


@dataclass
class Table:
    """A named collection of records under a shared schema."""

    name: str
    schema: Schema
    records: list[Record] = field(default_factory=list)

    @classmethod
    def from_rows(
        cls,
        name: str,
        rows: Sequence[Mapping[str, Any]],
        schema: Schema | None = None,
        source: str | None = None,
        confidence: float = 1.0,
        carried: Sequence[Record | None] = (),
    ) -> "Table":
        """Build a table from dict rows, inferring the schema when absent.

        Cells take their dtypes from the same per-column pass that votes
        the schema (:meth:`Schema.infer`): nothing is typed twice.

        ``carried`` lines up with ``rows``: a record in it is one an
        earlier ``from_rows`` built from that row, under the same source
        and confidence.  It is kept, rid included, and votes with its
        cells' dtypes; only the other rows are typed and minted.
        """
        inferred, dtypes = Schema.infer(rows, carried)
        src = source or name
        records = []
        for index, row in enumerate(rows):
            kept = carried[index] if carried else None
            if kept is not None:
                records.append(kept)
                continue
            provenance = Provenance.source(src)
            cells = {
                key: value if isinstance(value, Value) else Value(
                    value, dtypes[key][index] or DataType.STRING, confidence, provenance
                )
                for key, value in row.items()
            }
            records.append(Record(_next_rid(src), src, cells))
        return cls(name, inferred if schema is None else schema, records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)

    def __getitem__(self, index: int) -> Record:
        return self.records[index]

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """The schema's attribute names."""
        return self.schema.names

    def append(self, record: Record) -> None:
        """Append one record (cells outside the schema are allowed but
        invisible to schema-driven operations)."""
        self.records.append(record)

    def extend(self, records: Iterable[Record]) -> None:
        """Append many records."""
        self.records.extend(records)

    def column(self, name: str) -> list[Value]:
        """All cells of attribute ``name`` in record order."""
        if name not in self.schema:
            raise SchemaError(f"table {self.name!r} has no attribute {name!r}")
        return [record.get(name) for record in self.records]

    def raw_column(self, name: str) -> list[Any]:
        """All raw payloads of attribute ``name`` in record order."""
        return [value.raw for value in self.column(name)]

    def project(self, names: Sequence[str]) -> "Table":
        """A new table restricted to attributes ``names``."""
        return Table(
            self.name,
            self.schema.project(names),
            [record.project(names) for record in self.records],
        )

    def map_records(self, fn: Callable[[Record], Record]) -> "Table":
        """A new table with ``fn`` applied to each record."""
        return Table(self.name, self.schema, [fn(record) for record in self.records])

    def head(self, n: int = 5) -> "Table":
        """The first ``n`` records as a new table."""
        return Table(self.name, self.schema, list(self.records[:n]))

    def union(self, other: "Table", name: str | None = None) -> "Table":
        """Union of two tables under the merged schema."""
        return Table(
            name or self.name,
            self.schema.merge(other.schema),
            list(self.records) + list(other.records),
        )

    def distinct_raw(self, name: str) -> set[Any]:
        """Set of distinct non-null raw values in column ``name``."""
        return {
            value.raw for value in self.column(name) if not value.is_missing
        }

    def sort_by(self, name: str, reverse: bool = False) -> "Table":
        """A new table sorted by the raw values of column ``name``.

        Missing values sort last regardless of direction.
        """

        def key(record: Record) -> tuple[int, Any]:
            value = record.get(name)
            if value.is_missing:
                return (1, "")
            return (0, value.raw)

        return Table(
            self.name,
            self.schema,
            sorted(self.records, key=key, reverse=reverse),
        )

    def to_rows(self) -> list[dict[str, Any]]:
        """Plain list-of-dicts view (raw payloads only)."""
        return [record.to_dict() for record in self.records]

    def mean_confidence(self) -> float:
        """Average cell confidence across the whole table."""
        confs = [
            value.confidence
            for record in self.records
            for value in record.cells.values()
            if not value.is_missing
        ]
        if not confs:
            return 1.0
        return sum(confs) / len(confs)

    def completeness(self) -> float:
        """Fraction of schema cells that are populated across all records."""
        if not self.records or not self.schema.names:
            return 1.0
        total = len(self.records) * len(self.schema.names)
        present = sum(
            1
            for record in self.records
            for name in self.schema.names
            if not record.get(name).is_missing
        )
        return present / total

    def describe(self) -> str:
        """One-line summary used by logs and examples."""
        return (
            f"Table {self.name!r}: {len(self.records)} records x "
            f"{len(self.schema)} attributes "
            f"(completeness={self.completeness():.2f}, "
            f"confidence={self.mean_confidence():.2f})"
        )

    def render(self, limit: int = 10) -> str:
        """A fixed-width textual rendering of up to ``limit`` records."""
        names = list(self.schema.names)
        rows = [
            [str(record.get(name)) for name in names]
            for record in self.records[:limit]
        ]
        widths = [
            max(len(name), *(len(row[i]) for row in rows)) if rows else len(name)
            for i, name in enumerate(names)
        ]
        header = " | ".join(name.ljust(widths[i]) for i, name in enumerate(names))
        rule = "-+-".join("-" * width for width in widths)
        body = "\n".join(
            " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            for row in rows
        )
        suffix = "" if len(self.records) <= limit else f"\n... ({len(self.records) - limit} more)"
        return f"{header}\n{rule}\n{body}{suffix}"

    def infer_schema(self) -> "Table":
        """Re-infer attribute dtypes from the current records.

        Plurality vote over each column's non-``None`` cells (a blank
        string votes ``STRING``); an all-``None`` column keeps its type.
        """
        attrs = []
        for declared in self.schema:
            raws = [record.raw(declared.name) for record in self.records]
            counts = Counter(
                dtype or DataType.STRING
                for raw, dtype in zip(raws, infer_types(raws)[0])
                if raw is not None
            )
            best = max(counts, key=counts.__getitem__) if counts else declared.dtype
            attrs.append(replace(declared, dtype=best))
        return Table(self.name, Schema(tuple(attrs)), list(self.records))
