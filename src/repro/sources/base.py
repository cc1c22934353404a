"""Data source abstractions: the left edge of the paper's Figure 1.

Sources are "potentially heterogeneous ... files, databases, documents, web
pages".  Two abstract shapes cover them all:

* :class:`StructuredSource` — yields a :class:`~repro.model.records.Table`
  directly (CSV, JSON, databases, APIs);
* :class:`DocumentSource` — yields :class:`Document` objects (web pages)
  that must pass through the extraction component first.

Every source carries :class:`SourceMetadata` (access cost, change rate,
declared domain) used by source selection, and an access counter so cost
accounting is exact.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import SourceError
from repro.model.records import Table
from repro.model.workingdata import row_digest
from repro.sources.cursor import (
    DELTA_COST_FLOOR,
    DeltaBatch,
    Watermark,
    cursor_after,
    watermark_for,
)

__all__ = ["SourceMetadata", "Document", "DataSource", "StructuredSource", "DocumentSource"]


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
    """A source that yields relational data directly."""

    def __init__(self, metadata: SourceMetadata) -> None:
        super().__init__(metadata)
        self._size_hint: int | None = None
        self._size_token: object = None
        self._cursor_attribute: str | None = None

    @abc.abstractmethod
    def _load(self) -> Table:
        """Produce the source's current table (subclass hook)."""

    def _content_token(self) -> object:
        """A cheap token that changes whenever the backing content may
        have changed (file sources return mtime+size); ``None`` means
        the source cannot tell, and memoised state is kept."""
        return None

    def with_cursor(self, attribute: str) -> "StructuredSource":
        """Declare the monotone cursor attribute enabling delta fetches.

        The attribute's values must only ever grow for rows the source
        appends (sequence numbers, updated-at timestamps); rows edited
        *behind* the cursor are still caught by the watermark
        fingerprint and degrade the next fetch to a full refetch.
        """
        self._cursor_attribute = attribute
        return self

    def delta_cursor(self) -> str | None:
        """The declared cursor attribute, or ``None`` (no delta support)."""
        return self._cursor_attribute

    def supports_delta(self) -> bool:
        """Whether :meth:`fetch_delta` can do better than a full fetch."""
        return self.delta_cursor() is not None

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
        the batch's ``order`` and the watermark's fingerprint input.
        """
        cursor_attribute = self.delta_cursor()
        full = watermark is None or cursor_attribute is None
        table = self.fetch() if full else self._load()
        rows = table.to_rows()
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
            table=table if full else None,
        )

    def probe(self, limit: int = 25) -> Table:
        """Fetch a cheap sample (``PROBE_COST_FRACTION`` of a full access).

        Probes are how the planner learns what a source is worth *before*
        committing budget to it — the "Less is More" bootstrap.
        """
        self._record_access(PROBE_COST_FRACTION)
        table = self._load()
        self._memoise_size(len(table))
        return Table(self.name, table.schema, list(table.records[:limit]))

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
            self._size_hint = len(self._load())
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
