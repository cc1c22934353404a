"""Data source abstractions: the left edge of the paper's Figure 1.

Sources are "potentially heterogeneous ... files, databases, documents, web
pages".  Two abstract shapes cover them all:

* :class:`StructuredSource` — yields raw dict rows, typed into a
  :class:`~repro.model.records.Table` on fetch (CSV files, in-memory
  tables);
* :class:`DocumentSource` — yields :class:`Document` objects (web pages)
  that must pass through the extraction component first.

Every source carries :class:`SourceMetadata` (access cost, change rate,
declared domain) used by source selection, and an access counter so cost
accounting is exact.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.errors import SourceError
from repro.model.records import Table
from repro.model.schema import Attribute, Schema, infer_column_type
from repro.model.values import Value
from repro.model.workingdata import row_digest
from repro.sources.cursor import (
    DELTA_COST_FLOOR,
    DeltaBatch,
    Watermark,
    cursor_after,
    watermark_for,
)

__all__ = [
    "SourceMetadata",
    "Document",
    "DataSource",
    "StructuredSource",
    "DocumentSource",
    "raw_row",
]


@dataclass(frozen=True)
class SourceMetadata:
    """Static facts about a source, known before any access.

    ``cost_per_access`` is in the same cost units as the user context's
    budget; ``change_rate`` in expected content changes per day (the
    Velocity knob); ``domain`` is a free-text hint matched against the
    ontology for relevance scoring.
    """

    name: str
    kind: str = "structured"
    cost_per_access: float = 1.0
    change_rate: float = 0.0
    domain: str = ""
    url: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SourceError("source name must be non-empty")
        if self.cost_per_access < 0:
            raise SourceError("cost_per_access must be non-negative")
        if self.change_rate < 0:
            raise SourceError("change_rate must be non-negative")


@dataclass(frozen=True)
class Document:
    """One fetched document (web page) awaiting extraction."""

    url: str
    html: str
    source: str


#: A probe (sample fetch) costs this fraction of a full access.
PROBE_COST_FRACTION = 0.2


def raw_row(row: Mapping[str, Any]) -> dict[str, Any]:
    """``row`` with every :class:`~repro.model.values.Value` cell
    replaced by its raw payload — the row a table built from ``row``
    gives back through ``to_rows()``."""
    return {
        name: value.raw if isinstance(value, Value) else value
        for name, value in row.items()
    }


def _probe_schema(
    rows: Sequence[Mapping[str, Any]], sampled: int, voted: Schema
) -> Schema:
    """The schema of a probe of the first ``sampled`` of ``rows``, whose
    own vote is ``voted``.

    Every column any row holds, in first-seen order.  A column with a
    value in the sample keeps the sample's vote (the wrangler re-votes
    it from the sample's cells anyway); a column that is ``None``
    throughout the sample takes the vote of all rows, which only that
    column's cells are typed for.
    """
    attributes = []
    for name in dict.fromkeys(name for row in rows for name in row):
        held = voted.get(name)
        if held is None or all(row.get(name) is None for row in rows[:sampled]):
            held = Attribute(
                name, infer_column_type(row.get(name) for row in rows)
            )
        attributes.append(held)
    return Schema(tuple(attributes))


class DataSource(abc.ABC):
    """Common behaviour of all sources: metadata plus access accounting."""

    def __init__(self, metadata: SourceMetadata) -> None:
        self.metadata = metadata
        self._accesses = 0.0

    @property
    def name(self) -> str:
        """The source's unique name."""
        return self.metadata.name

    @property
    def accesses(self) -> float:
        """Accumulated accesses (a probe counts fractionally)."""
        return self._accesses

    @property
    def total_cost(self) -> float:
        """Total access cost spent on this source so far."""
        return self._accesses * self.metadata.cost_per_access

    def _record_access(self, fraction: float = 1.0) -> None:
        self._accesses += fraction


class StructuredSource(DataSource):
    """A source that yields relational data directly.

    A subclass supplies one hook, :meth:`_rows`; the table a fetch
    returns is typed from those rows (:meth:`_load`), while a delta
    fetch and a probe read them raw and type only what they keep.
    """

    def __init__(self, metadata: SourceMetadata) -> None:
        super().__init__(metadata)
        self._size_hint: int | None = None
        self._size_token: object = None
        self._cursor_attribute: str | None = None

    @abc.abstractmethod
    def _rows(self) -> list[dict[str, Any]]:
        """The source's current rows, raw payloads only (subclass hook);
        one call is one read of the source."""

    def _load(self) -> Table:
        """The source's current table: :meth:`_rows`, typed."""
        return Table.from_rows(self.name, self._rows(), source=self.name)

    def _content_token(self) -> object:
        """A cheap token that changes whenever the backing content may
        have changed (file sources return mtime+size); ``None`` means
        the source cannot tell, and memoised state is kept."""
        return None

    def delta_cursor(self) -> str | None:
        """The cursor attribute given at construction (``cursor=``), or
        ``None`` (no delta support).

        The attribute's values must only ever grow for rows the source
        appends (sequence numbers, updated-at timestamps); rows edited
        *behind* the cursor are still caught by the watermark
        fingerprint and degrade the next fetch to a full refetch.
        """
        return self._cursor_attribute

    def _memoise_size(self, count: int) -> None:
        self._size_hint = count
        self._size_token = self._content_token()

    def fetch(self) -> Table:
        """Fetch the source's current contents, recording the access."""
        self._record_access()
        table = self._load()
        self._memoise_size(len(table))
        if table.name != self.name:
            table = Table(self.name, table.schema, list(table.records))
        return table

    def fetch_delta(self, watermark: Watermark | None = None) -> DeltaBatch:
        """Fetch only what changed since ``watermark``.

        Without a watermark or a declared cursor this is a full fetch
        (full access charged, ``table`` populated).  With both, the
        source is read locally and only rows past the watermark cursor
        are returned, charged pro rata with a
        :data:`~repro.sources.cursor.DELTA_COST_FLOOR` floor; a matching
        content fingerprint short-circuits to ``"unchanged"`` at the
        floor price.  Each current row is digested once: the digests are
        the batch's ``order`` and the watermark's fingerprint input.  A
        local read takes the raw rows (:meth:`_rows`) and types nothing:
        whoever merges the delta types the rows it keeps.
        """
        cursor_attribute = self.delta_cursor()
        full = watermark is None or cursor_attribute is None
        table = self.fetch() if full else None
        rows = self._rows() if table is None else table.to_rows()
        order = tuple(row_digest(row) for row in rows)
        advanced = watermark_for(
            self.name, rows, cursor_attribute,
            previous=None if full else watermark, digests=order,
        )
        if full:
            mode, moved, fraction = "full", tuple(rows), 1.0
        elif advanced.fingerprint == watermark.fingerprint:
            mode, moved, fraction = "unchanged", (), DELTA_COST_FLOOR
        else:
            mode = "delta"
            moved = tuple(
                row
                for row in rows
                if cursor_after(row.get(cursor_attribute), watermark.cursor)
            )
            fraction = max(DELTA_COST_FLOOR, len(moved) / max(1, len(rows)))
        if not full:  # fetch() has already charged and memoised a full one
            self._record_access(fraction)
            self._memoise_size(len(rows))
        return DeltaBatch(
            source=self.name,
            mode=mode,
            rows=moved,
            order=order,
            watermark=advanced,
            fraction=fraction,
            table=table,
        )

    def probe(self, limit: int = 25) -> Table:
        """Fetch a cheap sample (``PROBE_COST_FRACTION`` of a full access).

        Probes are how the planner learns what a source is worth *before*
        committing budget to it — the "Less is More" bootstrap.  Only the
        first ``limit`` rows are typed (see :func:`_probe_schema` for the
        schema); the size hint is memoised from the full read.
        """
        self._record_access(PROBE_COST_FRACTION)
        rows = self._rows()
        self._memoise_size(len(rows))
        sample = Table.from_rows(self.name, rows[:limit], source=self.name)
        schema = _probe_schema(rows, limit, sample.schema)
        return Table(self.name, schema, sample.records)

    def size_hint(self) -> int:
        """The source's advertised record count (catalogs publish item
        counts; no access cost is charged for reading the banner).

        Memoised per fetch/probe — repeated probes must not silently
        re-read the entire source just to report its size — but the memo
        is invalidated when :meth:`_content_token` says the backing
        content changed (a stale hint would leak into cost estimates
        across checkpointed runs).
        """
        token = self._content_token()
        if self._size_hint is None or token != self._size_token:
            self._size_hint = len(self._rows())
            self._size_token = token
        return self._size_hint


class DocumentSource(DataSource):
    """A source that yields documents requiring extraction."""

    @abc.abstractmethod
    def _load(self) -> Sequence[Document]:
        """Produce the source's current documents (subclass hook)."""

    def fetch(self) -> list[Document]:
        """Fetch the source's current documents, recording the access."""
        self._record_access()
        return list(self._load())

    def probe(self, limit: int = 2) -> list[Document]:
        """Fetch a few pages cheaply (see :meth:`StructuredSource.probe`)."""
        self._record_access(PROBE_COST_FRACTION)
        return list(self._load())[:limit]
