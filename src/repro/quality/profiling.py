"""Data profiling: per-column statistics feeding the quality analyses."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.model.records import Table
from repro.model.schema import DataType, infer_types

__all__ = ["ColumnProfile", "TableProfile", "profile_table", "profile_column"]


@dataclass(frozen=True)
class ColumnProfile:
    """Descriptive statistics of one column."""

    attribute: str
    total: int
    nulls: int
    distinct: int
    type_counts: dict[DataType, int]
    most_common: tuple[tuple[object, int], ...]
    min_value: object | None
    max_value: object | None
    mean: float | None

    @property
    def null_ratio(self) -> float:
        """Fraction of missing cells."""
        return self.nulls / self.total if self.total else 0.0

    @property
    def distinctness(self) -> float:
        """Distinct values over non-null cells (1.0 = key-like)."""
        populated = self.total - self.nulls
        return self.distinct / populated if populated else 0.0

    @property
    def dominant_type(self) -> DataType:
        """The most frequent inferred type among non-null cells."""
        if not self.type_counts:
            return DataType.STRING
        return max(self.type_counts, key=lambda t: self.type_counts[t])

    @property
    def type_consistency(self) -> float:
        """Share of non-null cells agreeing with the dominant type."""
        populated = sum(self.type_counts.values())
        if populated == 0:
            return 1.0
        return self.type_counts[self.dominant_type] / populated


@dataclass(frozen=True)
class TableProfile:
    """Profiles for every column of a table."""

    table_name: str
    row_count: int
    columns: dict[str, ColumnProfile]

    def column(self, attribute: str) -> ColumnProfile:
        """The profile of one column."""
        return self.columns[attribute]

    def candidate_keys(self, min_distinctness: float = 1.0) -> list[str]:
        """Columns whose distinctness qualifies them as candidate keys."""
        return [
            name
            for name, profile in self.columns.items()
            if profile.nulls == 0
            and profile.total > 0
            and profile.distinctness >= min_distinctness
        ]


def profile_column(table: Table, attribute: str) -> ColumnProfile:
    """Profile one column of ``table``."""
    values = table.column(attribute)
    raws = [v.raw for v in values if not v.is_missing]
    nulls = len(values) - len(raws)
    type_counts = infer_types(raws)[1]
    counts = Counter(raws)
    numeric = []
    for raw in raws:
        try:
            if not isinstance(raw, bool):
                numeric.append(float(raw))  # type: ignore[arg-type]
        except (TypeError, ValueError):
            continue
    comparable = [raw for raw in raws if isinstance(raw, (int, float, str))]
    try:
        min_value = min(comparable) if comparable else None
        max_value = max(comparable) if comparable else None
    except TypeError:
        min_value = max_value = None
    return ColumnProfile(
        attribute=attribute,
        total=len(values),
        nulls=nulls,
        distinct=len(counts),
        type_counts=type_counts,
        most_common=tuple(counts.most_common(5)),
        min_value=min_value,
        max_value=max_value,
        mean=(sum(numeric) / len(numeric)) if numeric else None,
    )


def profile_table(table: Table) -> TableProfile:
    """Profile every (non-evaluation) column of ``table``."""
    return TableProfile(
        table.name,
        len(table),
        {
            name: profile_column(table, name)
            for name in table.schema.names
            if not name.startswith("_")
        },
    )
