"""Schemas, attributes, and data-type inference for the working data layer.

The paper's architecture requires "a uniform representation for the results
of the different components" (Section 4.2).  Tables flowing between
extraction, integration, and cleaning components all carry a
:class:`Schema`, and every cell is typed with a :class:`DataType` inferred
by :func:`infer_type` so that downstream components (matching, fusion,
quality analysis) can reason over heterogeneous sources uniformly.
"""

from __future__ import annotations

import datetime as _dt
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Sequence

from repro.errors import SchemaError, TypeInferenceError

if TYPE_CHECKING:  # typing only
    from repro.model.records import Record

__all__ = [
    "DataType",
    "Attribute",
    "Schema",
    "infer_type",
    "infer_types",
    "infer_column_type",
    "coerce",
]


class DataType(str, Enum):
    """The data types recognised by the wrangler's type system.

    ``CURRENCY`` and ``URL`` get first-class treatment because the paper's
    running example is e-commerce price intelligence, where prices and
    product page links dominate the payload.
    """

    STRING = "string"
    INTEGER = "integer"
    FLOAT = "float"
    BOOLEAN = "boolean"
    DATE = "date"
    CURRENCY = "currency"
    URL = "url"
    GEO = "geo"

    def is_numeric(self) -> bool:
        """Return ``True`` for types on which arithmetic is meaningful."""
        return self in (DataType.INTEGER, DataType.FLOAT, DataType.CURRENCY)


_BOOL_LITERALS = {
    "true": True,
    "false": False,
    "yes": True,
    "no": False,
    "y": True,
    "n": False,
}

_INT_RE = re.compile(r"^[+-]?\d{1,15}$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")
_CURRENCY_RE = re.compile(
    r"^\s*(?P<sym>[$€£¥]|USD|EUR|GBP)?\s*"
    r"(?P<amount>[+-]?\d{1,3}(,\d{3})+(\.\d+)?|[+-]?\d+(\.\d+)?)\s*"
    r"(?P<kilo>[kK])?\s*"
    r"(?P<sym2>[$€£¥]|USD|EUR|GBP)?\s*$"
)
_URL_RE = re.compile(r"^https?://[^\s]+$", re.IGNORECASE)
_DATE_FORMATS = (
    "%Y-%m-%d",
    "%d/%m/%Y",
    "%m/%d/%Y",
    "%Y/%m/%d",
    "%d %b %Y",
    "%d %B %Y",
    "%b %d, %Y",
)
_GEO_RE = re.compile(
    r"^\s*[+-]?\d{1,2}(\.\d+)?\s*,\s*[+-]?\d{1,3}(\.\d+)?\s*$"
)


#: The shape a string must have for each date format to possibly parse
#: it: every alternative is a superset of the regex ``strptime`` builds
#: for the formats it names (``%d`` admits ``" 5"``, format whitespace is
#: ``\\s+``, ``\\d`` admits Unicode digits, nothing may trail ``%Y``).
#: Month names are the locale's — some spell them with digits — so they
#: stay ``.*`` and the day-first shape also tries the month-first format.
_DATE_SHAPE = re.compile(
    r"(?P<iso>\d{4}-\d{1,2}-[\d ]\d?)"
    r"|(?P<ymd>\d{4}/\d{1,2}/[\d ]\d?)"
    r"|(?P<slash>[\d ]\d?/[\d ]\d?/\d{4})"
    r"|(?P<day_first>[\d ]\d?\s.*\s\d{4})"
    r"|(?P<month_first>.*\s[\d ]?\d,\s+\d{4})",
    re.DOTALL,
)
_SHAPE_FORMATS = {
    "iso": _DATE_FORMATS[0:1],
    "slash": _DATE_FORMATS[1:3],
    "ymd": _DATE_FORMATS[3:4],
    "day_first": _DATE_FORMATS[4:7],
    "month_first": _DATE_FORMATS[6:7],
}


def _parse_date(text: str) -> _dt.date | None:
    """Parse stripped ``text`` with the first of ``_DATE_FORMATS`` that fits.

    Only the formats whose shape ``text`` has are handed to ``strptime``,
    in their ``_DATE_FORMATS`` order: a non-date costs one regex miss.
    """
    shape = _DATE_SHAPE.fullmatch(text)
    if shape is None:
        return None
    for fmt in _SHAPE_FORMATS[shape.lastgroup]:
        try:
            return _dt.datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    return None


def infer_type(value: Any) -> DataType:
    """Infer the :class:`DataType` of a single raw value.

    Python-native values map directly; strings are probed against literal
    grammars in decreasing order of specificity (URL, geo pair, date,
    boolean, integer, float, currency) and fall back to ``STRING``.
    """
    if isinstance(value, bool):
        return DataType.BOOLEAN
    if isinstance(value, int):
        return DataType.INTEGER
    if isinstance(value, float):
        return DataType.FLOAT
    if isinstance(value, (_dt.date, _dt.datetime)):
        return DataType.DATE
    if isinstance(value, tuple) and len(value) == 2 and all(
        isinstance(part, (int, float)) for part in value
    ):
        return DataType.GEO
    if not isinstance(value, str):
        return DataType.STRING
    text = value.strip()
    if not text:
        return DataType.STRING
    if _URL_RE.match(text):
        return DataType.URL
    if _GEO_RE.match(text):
        return DataType.GEO
    if _parse_date(text) is not None:
        return DataType.DATE
    if text.lower() in _BOOL_LITERALS:
        return DataType.BOOLEAN
    if _INT_RE.match(text):
        return DataType.INTEGER
    if _FLOAT_RE.match(text):
        return DataType.FLOAT
    match = _CURRENCY_RE.match(text)
    if match and (match.group("sym") or match.group("sym2")):
        return DataType.CURRENCY
    return DataType.STRING


def infer_types(
    values: Iterable[Any],
) -> tuple[list[DataType | None], dict[DataType, int]]:
    """Type a whole column in one pass, each distinct string only once.

    Returns the dtype of every cell (``None`` for missing cells: ``None``
    and blank strings) and the histogram of the others, in first-seen
    order so a plurality tie breaks as in a cell-by-cell count.
    """
    typed: dict[str, DataType | None] = {}
    dtypes: list[DataType | None] = []
    for value in values:
        if not isinstance(value, str):
            dtype = None if value is None else infer_type(value)
        elif value in typed:
            dtype = typed[value]
        else:
            dtype = typed[value] = infer_type(value) if value.strip() else None
        dtypes.append(dtype)
    return dtypes, dict(Counter(d for d in dtypes if d is not None))


def _held_dtype(record: "Record", name: str) -> DataType | None:
    """The dtype :func:`infer_types` gave the cell a record holds."""
    cell = record.cells.get(name)
    return None if cell is None or cell.is_missing else cell.dtype


def _majority_type(counts: Mapping[DataType, int], threshold: float = 0.8) -> DataType:
    """The column type a dtype histogram of non-null cells votes for.

    A specific type is adopted only if at least ``threshold`` of the
    cells agree on it (numeric types are pooled: a column that is
    mostly ``INTEGER`` with some ``FLOAT`` becomes ``FLOAT``).  Otherwise
    the column degrades to ``STRING`` — the safe supertype.
    """
    total = sum(counts.values())
    if total == 0:
        return DataType.STRING
    best = max(counts, key=lambda d: counts[d])
    if counts[best] / total >= threshold:
        return best
    numeric = sum(counts.get(d, 0) for d in (DataType.INTEGER, DataType.FLOAT))
    if numeric / total >= threshold:
        return DataType.FLOAT
    if (numeric + counts.get(DataType.CURRENCY, 0)) / total >= threshold:
        return DataType.CURRENCY
    return DataType.STRING


def infer_column_type(values: Iterable[Any], threshold: float = 0.8) -> DataType:
    """Infer the type of a whole column: the vote of its cells' dtype histogram."""
    return _majority_type(infer_types(values)[1], threshold)


def coerce(value: Any, dtype: DataType) -> Any:
    """Coerce ``value`` to the Python-native form of ``dtype``.

    ``None`` passes through unchanged (missing stays missing).  Raises
    :class:`TypeInferenceError` when the value cannot represent the type —
    errors never pass silently into the wrangled data.
    """
    if value is None:
        return None
    try:
        if dtype is DataType.STRING:
            return value if isinstance(value, str) else str(value)
        if dtype is DataType.INTEGER:
            if isinstance(value, bool):
                raise ValueError("booleans are not integers")
            return int(str(value).strip())
        if dtype is DataType.FLOAT:
            return float(str(value).strip())
        if dtype is DataType.BOOLEAN:
            if isinstance(value, bool):
                return value
            literal = str(value).strip().lower()
            if literal in _BOOL_LITERALS:
                return _BOOL_LITERALS[literal]
            raise ValueError(f"not a boolean literal: {value!r}")
        if dtype is DataType.DATE:
            if isinstance(value, _dt.datetime):
                return value.date()
            if isinstance(value, _dt.date):
                return value
            parsed = _parse_date(str(value).strip())
            if parsed is None:
                raise ValueError(f"not a date: {value!r}")
            return parsed
        if dtype is DataType.CURRENCY:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return float(value)
            match = _CURRENCY_RE.match(str(value))
            if not match:
                raise ValueError(f"not a currency amount: {value!r}")
            amount = float(match.group("amount").replace(",", ""))
            if match.group("kilo"):
                amount *= 1000.0
            return amount
        if dtype is DataType.URL:
            text = str(value).strip()
            if not _URL_RE.match(text):
                raise ValueError(f"not a URL: {value!r}")
            return text
        if dtype is DataType.GEO:
            if isinstance(value, tuple) and len(value) == 2:
                return (float(value[0]), float(value[1]))
            parts = str(value).split(",")
            if len(parts) != 2:
                raise ValueError(f"not a lat,lon pair: {value!r}")
            return (float(parts[0]), float(parts[1]))
    except (ValueError, TypeError) as exc:
        raise TypeInferenceError(
            f"cannot coerce {value!r} to {dtype.value}"
        ) from exc
    raise TypeInferenceError(f"unknown data type: {dtype!r}")


@dataclass(frozen=True)
class Attribute:
    """A named, typed column of a :class:`Schema`.

    ``required`` marks attributes whose absence counts against the
    completeness quality dimension; ``description`` feeds ontology-assisted
    matching with human-readable hints.
    """

    name: str
    dtype: DataType = DataType.STRING
    required: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")


@dataclass(frozen=True)
class Schema:
    """An ordered collection of uniquely named :class:`Attribute` objects."""

    attributes: tuple[Attribute, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [attr.name for attr in self.attributes]
        if len(names) != len(set(names)):
            duplicates = sorted(
                {name for name in names if names.count(name) > 1}
            )
            raise SchemaError(f"duplicate attribute names: {duplicates}")

    @classmethod
    def of(cls, *specs: "Attribute | str | tuple[str, DataType]") -> "Schema":
        """Build a schema from a mix of attribute specs.

        Accepts :class:`Attribute` instances, bare names (typed ``STRING``),
        or ``(name, dtype)`` pairs.
        """
        attrs: list[Attribute] = []
        for spec in specs:
            if isinstance(spec, Attribute):
                attrs.append(spec)
            elif isinstance(spec, str):
                attrs.append(Attribute(spec))
            else:
                name, dtype = spec
                attrs.append(Attribute(name, dtype))
        return cls(tuple(attrs))

    @classmethod
    def from_rows(cls, rows: Sequence[Mapping[str, Any]]) -> "Schema":
        """Infer a schema from raw dict rows using column-level type voting."""
        return cls.infer(rows)[0]

    @classmethod
    def infer(
        cls,
        rows: Sequence[Mapping[str, Any]],
        carried: Sequence["Record | None"] = (),
    ) -> tuple["Schema", dict[str, list[DataType | None]]]:
        """The voted schema of dict rows and the dtype of every cell, from
        one :func:`infer_types` pass per column (an absent key is ``None``).

        ``carried`` lines up with ``rows``: a record in it was built from
        its row, and its cells' dtypes stand for the row's (a missing
        cell's as ``None``) — only the other rows are typed.
        """
        fresh = rows
        if carried:
            fresh = [row for row, kept in zip(rows, carried) if kept is None]
        columns = {}
        for name in dict.fromkeys(name for row in rows for name in row):
            dtypes, counts = infer_types(row.get(name) for row in fresh)
            if len(fresh) < len(rows):
                typed = iter(dtypes)
                dtypes = [
                    next(typed) if record is None else _held_dtype(record, name)
                    for record in carried
                ]
                counts = dict(Counter(d for d in dtypes if d is not None))
            columns[name] = dtypes, counts
        attrs = (Attribute(n, _majority_type(c)) for n, (_, c) in columns.items())
        return cls(tuple(attrs)), {n: dtypes for n, (dtypes, _) in columns.items()}

    @property
    def names(self) -> tuple[str, ...]:
        """Attribute names, in declaration order."""
        return tuple(attr.name for attr in self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)

    def __contains__(self, name: object) -> bool:
        return any(attr.name == name for attr in self.attributes)

    def __getitem__(self, name: str) -> Attribute:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise SchemaError(f"no attribute named {name!r}")

    def get(self, name: str) -> Attribute | None:
        """Return the attribute named ``name``, or ``None``."""
        for attr in self.attributes:
            if attr.name == name:
                return attr
        return None

    def project(self, names: Sequence[str]) -> "Schema":
        """Return a schema restricted to ``names``, in the given order."""
        return Schema(tuple(self[name] for name in names))

    def extend(self, *attrs: Attribute) -> "Schema":
        """Return a schema with ``attrs`` appended."""
        return Schema(self.attributes + tuple(attrs))

    def merge(self, other: "Schema") -> "Schema":
        """Union of two schemas; shared names must agree on dtype."""
        attrs = list(self.attributes)
        for attr in other.attributes:
            existing = self.get(attr.name)
            if existing is None:
                attrs.append(attr)
            elif existing.dtype is not attr.dtype:
                raise SchemaError(
                    f"attribute {attr.name!r} has conflicting types: "
                    f"{existing.dtype.value} vs {attr.dtype.value}"
                )
        return Schema(tuple(attrs))
