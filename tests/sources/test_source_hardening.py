"""Source failure taxonomy and size-hint memoisation.

File-backed sources must translate raw I/O and decoding failures into
:class:`~repro.errors.SourceError` — the taxonomy the resilience guard
classifies — instead of leaking ``OSError``/``UnicodeDecodeError`` into the
pipeline.  And ``size_hint()`` must reuse the last fetch instead of
silently re-reading the whole source.
"""

import pytest

from repro.errors import SourceError
from repro.model.records import Table
from repro.sources.base import SourceMetadata, StructuredSource
from repro.sources.files import CSVSource, JSONSource
from repro.sources.xmlfile import XMLSource


class TestFailureTaxonomy:
    def test_csv_directory_path_is_a_source_error(self, tmp_path):
        with pytest.raises(SourceError, match="could not be read"):
            CSVSource("dir", tmp_path / ".").fetch()

    def test_csv_invalid_utf8_is_a_source_error(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"name,price\ncaf\xe9,10\n")
        with pytest.raises(SourceError, match="not valid UTF-8"):
            CSVSource("latin", path).fetch()

    def test_json_directory_path_is_a_source_error(self, tmp_path):
        with pytest.raises(SourceError, match="could not be read"):
            JSONSource("dir", tmp_path / ".").fetch()

    def test_json_invalid_utf8_is_a_source_error(self, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b'[{"name": "caf\xe9"}]')
        with pytest.raises(SourceError, match="not valid UTF-8"):
            JSONSource("latin", path).fetch()

    def test_json_malformed_payload_is_a_source_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("[{truncated")
        with pytest.raises(SourceError, match="malformed"):
            JSONSource("broken", path).fetch()

    def test_xml_directory_path_is_a_source_error(self, tmp_path):
        (tmp_path / "feed.xml").mkdir()
        with pytest.raises(SourceError):
            XMLSource("dir", tmp_path / "feed.xml", "item").fetch()


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
