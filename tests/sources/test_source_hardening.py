"""Source failure taxonomy and size-hint memoisation.

The CSV source must translate raw I/O and decoding failures, and a
header that would drop or misplace values, into
:class:`~repro.errors.SourceError` — the taxonomy the resilience guard
classifies — instead of leaking ``OSError``/``UnicodeDecodeError`` or a
schema error into the pipeline.  And ``size_hint()`` must reuse the last fetch instead of
silently re-reading the whole source.
"""

import pytest

from repro.errors import SourceError
from repro.model.records import Table
from repro.sources.base import SourceMetadata, StructuredSource
from repro.sources.files import CSVSource


class TestFailureTaxonomy:
    def test_csv_directory_path_is_a_source_error(self, tmp_path):
        with pytest.raises(SourceError, match="could not be read"):
            CSVSource("dir", tmp_path / ".").fetch()

    def test_csv_invalid_utf8_is_a_source_error(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"name,price\ncaf\xe9,10\n")
        with pytest.raises(SourceError, match="not valid UTF-8"):
            CSVSource("latin", path).fetch()

    def test_csv_duplicate_header_name_is_a_source_error(self, tmp_path):
        # A repeated name used to keep only the last column's values.
        path = tmp_path / "dup.csv"
        path.write_text("name,price,price\nA,1,2\n", encoding="utf-8")
        with pytest.raises(SourceError, match=r"dup\.csv, line 1: column 'price'"):
            CSVSource("dup", path).fetch()

    def test_csv_empty_header_name_is_a_source_error(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("name,,price\nA,x,1\n", encoding="utf-8")
        with pytest.raises(SourceError, match=r"blank\.csv, line 1: empty column"):
            CSVSource("blank", path).fetch()

    def test_csv_row_wider_than_header_is_a_source_error(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("name,price\nA,1\nB,2,extra\n", encoding="utf-8")
        with pytest.raises(SourceError, match=r"wide\.csv, line 3: 3 fields"):
            CSVSource("wide", path).fetch()

    def test_csv_short_row_leaves_trailing_cells_missing(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("name,price\nA\n\nB,2\n", encoding="utf-8")
        table = CSVSource("short", path).fetch()
        assert table.raw_column("name") == ["A", "B"]
        assert table[0].get("price").is_missing


class CountingSource(StructuredSource):
    """A source that counts physical loads."""

    def __init__(self, name="counting", rows=3):
        super().__init__(SourceMetadata(name, kind="memory"))
        self._n = rows
        self.load_calls = 0

    def _load(self) -> Table:
        self.load_calls += 1
        return Table.from_rows(
            self.name,
            [{"id": str(i)} for i in range(self._n)],
            source=self.name,
        )


class TestSizeHintMemoisation:
    def test_size_hint_reuses_the_last_fetch(self):
        source = CountingSource(rows=5)
        source.fetch()
        assert source.size_hint() == 5
        assert source.size_hint() == 5
        assert source.load_calls == 1  # no re-read just to report a size

    def test_size_hint_reuses_the_last_probe(self):
        source = CountingSource(rows=7)
        source.probe(limit=2)
        # The hint advertises the source's full size, not the sample's,
        # and costs no extra load.
        assert source.size_hint() == 7
        assert source.load_calls == 1

    def test_cold_size_hint_loads_once_then_memoises(self):
        source = CountingSource(rows=4)
        assert source.size_hint() == 4
        assert source.size_hint() == 4
        assert source.load_calls == 1
        assert source.accesses == 0.0  # the banner read is not an access
