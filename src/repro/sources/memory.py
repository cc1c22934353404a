"""In-memory sources, used by tests, examples, and the synthetic worlds."""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from repro.sources.base import (
    Document,
    DocumentSource,
    SourceMetadata,
    StructuredSource,
    raw_row,
)

__all__ = ["MemorySource", "MemoryDocumentSource", "VolatileSource"]


class MemorySource(StructuredSource):
    """A structured source backed by rows held in memory.

    A :class:`~repro.model.values.Value` cell is held as its raw payload
    and typed on fetch like any other cell.
    """

    def __init__(
        self,
        name: str,
        rows: Sequence[Mapping[str, Any]],
        cost_per_access: float = 1.0,
        change_rate: float = 0.0,
        domain: str = "",
        cursor: str | None = None,
    ) -> None:
        super().__init__(
            SourceMetadata(
                name,
                kind="memory",
                cost_per_access=cost_per_access,
                change_rate=change_rate,
                domain=domain,
            )
        )
        self._held = [raw_row(row) for row in rows]
        self._cursor_attribute = cursor
        self._generation = 0

    def _rows(self) -> list[dict[str, Any]]:
        return [dict(row) for row in self._held]

    def _content_token(self) -> object:
        return self._generation

    def replace_rows(self, rows: Sequence[Mapping[str, Any]]) -> None:
        """Swap the backing rows (models source-side updates / Velocity)."""
        self._held = [raw_row(row) for row in rows]
        self._generation += 1


class VolatileSource(StructuredSource):
    """A structured source whose contents are produced by a callable on
    every fetch — models high-Velocity sources whose content drifts."""

    def __init__(
        self,
        name: str,
        producer: Callable[[int], Sequence[Mapping[str, Any]]],
        cost_per_access: float = 1.0,
        change_rate: float = 10.0,
        domain: str = "",
    ) -> None:
        super().__init__(
            SourceMetadata(
                name,
                kind="volatile",
                cost_per_access=cost_per_access,
                change_rate=change_rate,
                domain=domain,
            )
        )
        self._producer = producer
        self._fetch_index = 0

    def _rows(self) -> list[dict[str, Any]]:
        rows = self._producer(self._fetch_index)
        self._fetch_index += 1
        return [raw_row(row) for row in rows]


class MemoryDocumentSource(DocumentSource):
    """A document source backed by HTML strings held in memory."""

    def __init__(
        self,
        name: str,
        pages: Sequence[tuple[str, str]],
        cost_per_access: float = 1.0,
        change_rate: float = 0.0,
        domain: str = "",
    ) -> None:
        super().__init__(
            SourceMetadata(
                name,
                kind="web",
                cost_per_access=cost_per_access,
                change_rate=change_rate,
                domain=domain,
            )
        )
        self._pages = list(pages)

    def _load(self) -> list[Document]:
        return [
            Document(url=url, html=html, source=self.name)
            for url, html in self._pages
        ]
