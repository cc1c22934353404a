"""Record-pair comparison: per-field measures pooled into one similarity."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ResolutionError
from repro.matching.similarity import (
    NameScores,
    jaccard,
    jaro_winkler,
    monge_elkan,
    numeric_similarity,
    token_set,
)
from repro.model.records import Record, Table
from repro.model.schema import DataType, Schema

__all__ = [
    "DistinctCounts",
    "FieldComparator",
    "RecordComparator",
    "ScoringContext",
    "GEO_SCALE_DEGREES",
    "MEASURE_DOMAINS",
    "TRANSIENT_DTYPES",
    "default_comparator",
    "profiled_comparator",
    "geo_similarity",
    "parse_point",
]

#: Decay length of the geo measure: 0.05° is ~5 km — city-block
#: resolution.  Shared with the vectorised kernels so both paths score
#: the identical curve.
GEO_SCALE_DEGREES = 0.05


def parse_point(value: object) -> tuple[float, float] | None:
    """``(lat, lon)`` from a coordinate tuple or ``"lat, lon"`` string.

    ``None`` when the value is not a coordinate; shared by
    :func:`geo_similarity` and the vectorised kernels so both paths
    agree on what parses.
    """
    if isinstance(value, tuple) and len(value) == 2:
        return (float(value[0]), float(value[1]))
    try:
        lat_text, lon_text = str(value).split(",")
        return (float(lat_text), float(lon_text))
    except (ValueError, AttributeError):
        return None


def geo_similarity(
    a: object, b: object, scale_degrees: float = GEO_SCALE_DEGREES
) -> float:
    """Closeness of two coordinate pairs, decaying over ``scale_degrees``.

    Accepts ``(lat, lon)`` tuples or ``"lat, lon"`` strings; 1.0 at zero
    distance, ~0.37 at one scale length, → 0 beyond.
    """
    point_a, point_b = parse_point(a), parse_point(b)
    if point_a is None or point_b is None:
        return 0.0
    distance = math.hypot(point_a[0] - point_b[0], point_a[1] - point_b[1])
    return math.exp(-distance / scale_degrees)


_MEASURES: dict[str, Callable[[object, object], float]] = {
    "jaro": lambda a, b: jaro_winkler(str(a).lower(), str(b).lower()),
    "jaccard": lambda a, b: jaccard(token_set(str(a)), token_set(str(b))),
    "tokens": lambda a, b: monge_elkan(str(a), str(b)),
    "tokens_strict": lambda a, b: monge_elkan(str(a), str(b), combine="min"),
    "numeric": lambda a, b: (
        numeric_similarity(float(a), float(b))
        if _is_number(a) and _is_number(b)
        else 0.0
    ),
    "geo": geo_similarity,
    "exact": lambda a, b: 1.0 if str(a).lower() == str(b).lower() else 0.0,
}


def _is_number(value: object) -> bool:
    try:
        float(str(value))
        return True
    except (TypeError, ValueError):
        return False


#: The DataTypes each measure is meaningful on (``None`` = any type: the
#: string measures stringify their operands, which is what lets a
#: :class:`ScoringContext` table them by ``str()`` value pair).  Outside
#: its domain a measure scores 0.0 — ``numeric`` on a GEO column is a
#: configuration defect, not evidence.
MEASURE_DOMAINS: dict[str, frozenset[DataType] | None] = {
    "jaro": None,
    "jaccard": None,
    "tokens": None,
    "tokens_strict": None,
    "exact": None,
    "numeric": frozenset(
        {DataType.INTEGER, DataType.FLOAT, DataType.CURRENCY}
    ),
    "geo": frozenset({DataType.GEO, DataType.STRING}),
}

#: Attribute types excluded from identity comparison: a URL names the
#: offer at one source, a DATE the observation, a CURRENCY amount the
#: measurement — the paper's "highly transient information" (Section 3.1).
TRANSIENT_DTYPES = frozenset(
    {DataType.URL, DataType.DATE, DataType.CURRENCY}
)


@dataclass(frozen=True)
class FieldComparator:
    """How to compare one attribute across a record pair."""

    attribute: str
    measure: str = "jaro"
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.measure not in _MEASURES:
            raise ResolutionError(
                f"unknown measure {self.measure!r}; "
                f"known: {sorted(_MEASURES)}"
            )
        if self.weight < 0:
            raise ResolutionError("comparator weight must be non-negative")

    def compare(self, left: Record, right: Record) -> float | None:
        """Similarity of the attribute across the pair, or ``None`` when
        either side is missing (missing data is no evidence either way)."""
        value_left = left.get(self.attribute)
        value_right = right.get(self.attribute)
        if value_left.is_missing or value_right.is_missing:
            return None
        return _MEASURES[self.measure](value_left.raw, value_right.raw)


@dataclass(frozen=True)
class RecordComparator:
    """A weighted bundle of field comparators.

    ``similarity`` is the weighted mean over comparable fields; pairs with
    no comparable field score 0 (nothing supports a match).  ``vector``
    exposes the raw per-field similarities a match rule is handed.
    """

    fields: tuple[FieldComparator, ...]

    def __post_init__(self) -> None:
        if not self.fields:
            raise ResolutionError("record comparator needs at least one field")

    def vector(self, left: Record, right: Record) -> list[float | None]:
        """Per-field similarities (``None`` where incomparable)."""
        return [field.compare(left, right) for field in self.fields]

    def similarity(self, left: Record, right: Record) -> float:
        """Weighted mean similarity over comparable fields."""
        return self.similarity_from_vector(self.vector(left, right))

    def similarity_from_vector(
        self, vector: Sequence[float | None]
    ) -> float:
        """The weighted mean the already-computed ``vector`` pools to.

        The resolver needs both the vector (handed to the match rule) and
        the pooled similarity (which the threshold rule reads) per pair;
        computing them independently ran every ``field.compare`` twice on
        the quadratic hot path.  Same arithmetic, same accumulation
        order as :meth:`similarity` — bit-identical results.
        """
        total = 0.0
        weight_sum = 0.0
        for field, score in zip(self.fields, vector):
            if score is None:
                continue
            total += field.weight * score
            weight_sum += field.weight
        if weight_sum == 0.0:
            return 0.0
        return total / weight_sum


class ScoringContext:
    """A resolve's score tables around a comparator: the scalar compare
    loop computes each thing once and looks it up after.

    Candidate pairs are scored field by field, but the *values* repeat
    far more than the pairs do (duplicate offers carry the identical
    title, ``brand`` has a handful of values, titles share a small token
    vocabulary).  So the context keeps, per string measure, a table
    keyed by the **ordered** pair of ``str()`` forms the measure sees
    (``1``, ``1.0`` and ``True`` hash alike but ``exact`` compares
    ``"1"``, ``"1.0"``, ``"true"``; ``numeric`` and ``geo`` read their
    operands' types, are cheap, and are not tabled), and one
    :class:`~repro.matching.similarity.NameScores` under both Monge–Elkan
    measures, which the prune kernels' compile step fills and the scalar
    loop then reads.  Every float comes from the expression
    ``comparator.vector`` evaluates, only fewer times — decisions stay
    bit-identical; keys are ordered because the string measures are
    symmetric only to ``approx``.

    Whoever builds the context owns its lifetime: ``EntityResolver.
    resolve`` wraps a plain comparator in a fresh one per call, dropped
    on return; a caller scoring more pairs for the same resolve builds it
    first and passes it wherever the comparator goes.  Nothing is
    module-level.  Only the plain classes are tabled (the rule the
    kernels compile by): a ``RecordComparator`` subclass or duck-typed
    comparator keeps its own ``vector``, a ``FieldComparator`` subclass
    its own ``compare``.

    A context built on ``previous`` reads through to that context's
    tables — the value-pair tables by measure, and its ``NameScores`` —
    and enters what it finds in its own, so after :meth:`detach` it
    holds exactly the entries its own pass touched and ``previous`` can
    be collected.  Carrying is exact because a table entry depends on
    nothing but its measure and its ordered ``str`` pair: not on the
    weights (which ``profiled_comparator`` re-derives from every table
    it profiles), the threshold, or which records carry the values.  The
    wrangler builds one context per run that re-resolves, shared by its
    ``refit`` and ``resolve`` nodes, on the last resolve's context, and
    detaches it once it has resolved.

    A table gains one key (about 200 bytes) per *distinct* value pair
    scored, so it is bounded by the pairs the scalar loop sees — the
    prune kernels' survivors on the default path, every candidate with
    ``use_kernels=False`` — and pays back when value pairs repeat,
    within a resolve or from one to the next.
    """

    def __init__(
        self,
        comparator: RecordComparator,
        previous: "ScoringContext | None" = None,
    ) -> None:
        self.comparator = comparator
        self.names = NameScores(
            previous.names if previous is not None else None
        )
        self._tables: dict[str, dict[tuple[str, str], float]] = {}
        self._carried = previous._tables if previous is not None else {}
        self._fields: list[tuple] | None = None
        if type(comparator) is RecordComparator:
            names = self.names
            measures = dict(
                _MEASURES,
                tokens=names.score,
                tokens_strict=lambda a, b: names.score(a, b, "min"),
            )
            self._fields = [
                (
                    field,
                    measures[field.measure],
                    self._tables.setdefault(field.measure, {})
                    if type(field) is FieldComparator
                    and MEASURE_DOMAINS[field.measure] is None
                    else None,
                )
                for field in comparator.fields
            ]

    @classmethod
    def around(cls, comparator: "RecordComparator | ScoringContext"):
        """``comparator`` itself when it already is a context (its
        builder shares it), else a fresh context around it."""
        return comparator if isinstance(comparator, cls) else cls(comparator)

    def detach(self) -> None:
        """Stop reading through to the context this one was built on."""
        self._carried = {}
        self.names.detach()

    def vector(self, left: Record, right: Record) -> list[float | None]:
        """``comparator.vector(left, right)``, off the tables."""
        if self._fields is None:
            return self.comparator.vector(left, right)
        vector: list[float | None] = []
        for field, measure, table in self._fields:
            if table is None:
                vector.append(field.compare(left, right))
                continue
            value_left = left.get(field.attribute)
            value_right = right.get(field.attribute)
            if value_left.is_missing or value_right.is_missing:
                vector.append(None)
                continue
            pair = (str(value_left.raw), str(value_right.raw))
            score = table.get(pair)
            if score is None:
                carried = self._carried.get(field.measure)
                if carried is not None:
                    score = carried.get(pair)
                if score is None:
                    score = measure(*pair)
                table[pair] = score
            vector.append(score)
        return vector


_MEASURE_FOR_DTYPE = {
    DataType.STRING: "jaro",
    DataType.INTEGER: "numeric",
    DataType.FLOAT: "numeric",
    DataType.CURRENCY: "numeric",
    DataType.BOOLEAN: "exact",
    DataType.DATE: "exact",
    DataType.URL: "exact",
    DataType.GEO: "geo",
}


def default_comparator(
    schema: Schema, attributes: Sequence[str] | None = None
) -> RecordComparator:
    """A sensible comparator derived from the schema.

    Identity evidence is concentrated where it belongs: required STRING
    attributes (entity names) use token-level matching at triple weight;
    GEO is genuine identity evidence at full weight; all other attributes
    count at 0.5 — shared brand or category is weak support, not identity.
    URL, DATE, and CURRENCY attributes are excluded entirely: a URL names
    the *offer at one source*, a date the *observation*, and a price the
    *measurement* (the paper's "highly transient information", Section
    3.1) — honest records of the same entity disagree on all three.
    """
    names = list(attributes) if attributes is not None else [
        a.name
        for a in schema
        if not a.name.startswith("_") and a.dtype not in TRANSIENT_DTYPES
    ]
    fields = []
    for name in names:
        attribute = schema.get(name)
        dtype = attribute.dtype if attribute is not None else DataType.STRING
        required = attribute is not None and attribute.required
        measure = _MEASURE_FOR_DTYPE.get(dtype, "jaro")
        if required and dtype is DataType.STRING:
            # Entity names: token-level matching separates "Pro 123" from
            # "Max 999" where whole-string Jaro does not.
            measure = "tokens"
        if required:
            weight = 3.0
        elif dtype is DataType.GEO:
            weight = 1.0
        else:
            weight = 0.5
        fields.append(FieldComparator(name, measure, weight))
    return RecordComparator(tuple(fields))


class DistinctCounts:
    """Per attribute, how many populated cells each distinct ``str(raw)``
    fills over the records of the last table counted — the distinctness
    :func:`profiled_comparator` weighs by, carried by record identity.

    Counting the next table visits only the records it does not share
    with the last one, and every record for an attribute not counted
    last time; a delta tick, whose translated table keeps the records of
    the rows it did not change, counts its appended records.  Records
    are immutable, so a held record's cells are the ones it was counted
    with.  A table holding one record object twice is counted afresh,
    the record twice, and carries nothing to the next.
    """

    def __init__(self) -> None:
        self._held: dict[int, Record] = {}
        self._counts: dict[str, Counter[str]] = {}

    def count(
        self, table: Table, names: Sequence[str]
    ) -> dict[str, tuple[int, int]]:
        """Move to ``table``'s records; per name of ``names`` in its
        schema, ``(distinct, populated)`` — distinct ``str(raw)`` forms
        and non-missing cells of that column."""
        records = table.records
        held = dict(zip(map(id, records), records))
        once = len(held) == len(records)
        carried = self._counts if once else {}
        gained = [held[key] for key in held.keys() - self._held.keys()]
        lost = [self._held[key] for key in self._held.keys() - held.keys()]
        counted = {}
        for name in dict.fromkeys(names):
            if name not in table.schema:
                continue
            counts = carried.get(name)
            if counts is None:
                counts = _tally(Counter(), records, name, 1)
            else:
                _tally(_tally(counts, lost, name, -1), gained, name, 1)
            counted[name] = counts
        self._held, self._counts = (held, counted) if once else ({}, {})
        return {
            name: (len(counts), sum(counts.values()))
            for name, counts in counted.items()
        }


def _tally(
    counts: Counter[str], records: Sequence[Record], name: str, sign: int
) -> Counter[str]:
    """Add (``sign`` 1) or take away (-1) each of ``records`` to the
    ``str(raw)`` counts of column ``name``."""
    for record in records:
        value = record.get(name)
        if value.is_missing:
            continue
        text = str(value.raw)
        left = counts[text] + sign
        if left:
            counts[text] = left
        else:
            del counts[text]
    return counts


def profiled_comparator(
    schema: Schema,
    table: Table,
    attributes: Sequence[str] | None = None,
    counts: DistinctCounts | None = None,
) -> RecordComparator:
    """A comparator whose weights follow measured attribute selectivity.

    A declared-required attribute is not necessarily *identifying*: a city
    is required for a business record yet shared by thousands of
    businesses.  Profiling the actual data fixes this — each attribute's
    weight is ``0.5 + 2.5 x distinctness``, so near-key attributes (names)
    dominate and low-selectivity attributes (city, category) merely nudge.
    String attributes with distinctness >= 0.3 compare token-wise.
    Exclusions (URL/DATE/CURRENCY, leading underscore) are as in
    :func:`default_comparator`.

    ``counts``, when given, carries the distinct-value counts from the
    table it last profiled (:class:`DistinctCounts`); the comparator is
    the one a fresh profile of ``table`` gives.
    """
    names = list(attributes) if attributes is not None else [
        a.name
        for a in schema
        if not a.name.startswith("_") and a.dtype not in TRANSIENT_DTYPES
    ]
    counted = (counts or DistinctCounts()).count(table, names)
    distinctness: dict[str, float] = {}
    for name in names:
        distinct, populated = counted.get(name, (0, 0))
        distinctness[name] = distinct / populated if populated else 0.5
    # Duplicated entities depress the raw distinctness of the identity key
    # itself (that is why ER is running!), so selectivity is *relative*:
    # the most selective attribute anchors the scale.
    ceiling = max(distinctness.values(), default=0.5) or 0.5
    fields = []
    for name in names:
        attribute = schema.get(name)
        dtype = attribute.dtype if attribute is not None else DataType.STRING
        required = attribute is not None and attribute.required
        selectivity = distinctness[name] / ceiling
        measure = _MEASURE_FOR_DTYPE.get(dtype, "jaro")
        if dtype is DataType.STRING and (selectivity >= 0.3 or required):
            measure = "tokens"
            if required:
                # Identity fields: one extra word usually means a
                # different entity ("QA Analyst" vs "Junior QA Analyst"),
                # so demand both directions account for each other's
                # tokens.
                measure = "tokens_strict"
        if dtype is DataType.GEO:
            weight = 1.0
        else:
            weight = 0.5 + 2.5 * selectivity
            if required:
                # Declared-required attributes are part of the entity's
                # identity even when their value space is small (the same
                # title at two employers is two different jobs).
                weight = max(weight, 3.0)
        fields.append(FieldComparator(name, measure, weight))
    return RecordComparator(tuple(fields))
