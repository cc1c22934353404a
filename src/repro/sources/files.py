"""The file-backed source: CSV (the "files" of Figure 1)."""

from __future__ import annotations

import csv
from pathlib import Path

from repro.errors import SourceError
from repro.model.records import Table
from repro.sources.base import SourceMetadata, StructuredSource

__all__ = ["CSVSource", "file_token"]


def file_token(path: Path) -> tuple[int, int] | None:
    """mtime+size of a backing file; changes when the content may have.

    ``None`` for a missing file — the next ``_load`` raises the real
    :class:`SourceError`, so the token never has to.
    """
    try:
        stat = path.stat()
    except OSError:
        return None
    return (stat.st_mtime_ns, stat.st_size)


class CSVSource(StructuredSource):
    """A structured source reading a comma-separated file on every fetch.

    The first row names the columns.  A header with an empty or repeated
    name, or a row wider than the header, is a :class:`SourceError`
    naming the file and line: either would otherwise drop or misplace
    values.  A shorter row leaves its trailing cells missing.
    """

    def __init__(
        self,
        name: str,
        path: str | Path,
        cost_per_access: float = 1.0,
        change_rate: float = 0.0,
        domain: str = "",
        cursor: str | None = None,
    ) -> None:
        super().__init__(
            SourceMetadata(
                name,
                kind="csv",
                cost_per_access=cost_per_access,
                change_rate=change_rate,
                domain=domain,
                url=str(path),
            )
        )
        self._path = Path(path)
        self._cursor_attribute = cursor

    def _content_token(self) -> object:
        return file_token(self._path)

    def _load(self) -> Table:
        if not self._path.exists():
            raise SourceError(f"CSV file not found: {self._path}")
        try:
            with self._path.open(newline="", encoding="utf-8") as handle:
                reader = csv.reader(handle)
                header = next(reader, [])
                self._check_header(header, reader.line_num)
                width = len(header)
                rows = []
                for cells in reader:
                    if not cells:
                        continue
                    if len(cells) > width:
                        raise SourceError(
                            f"CSV file {self._path}, line {reader.line_num}: "
                            f"{len(cells)} fields under a {width}-column header"
                        )
                    cells += [""] * (width - len(cells))
                    rows.append(
                        {name: cell or None for name, cell in zip(header, cells)}
                    )
        except UnicodeDecodeError as failure:
            raise SourceError(
                f"CSV source {self.name!r} is not valid UTF-8: {failure}"
            ) from failure
        except OSError as failure:
            raise SourceError(
                f"CSV source {self.name!r} could not be read: {failure}"
            ) from failure
        return Table.from_rows(self.name, rows, source=self.name)

    def _check_header(self, header: list[str], line: int) -> None:
        seen: set[str] = set()
        for name in header:
            if not name:
                raise SourceError(
                    f"CSV file {self._path}, line {line}: empty column name"
                )
            if name in seen:
                raise SourceError(
                    f"CSV file {self._path}, line {line}: "
                    f"column {name!r} named twice"
                )
            seen.add(name)
