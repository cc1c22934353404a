"""Tests for the XML source."""

import pytest

from repro.errors import SourceError
from repro.sources.xmlfile import XMLSource

FEED = """<?xml version="1.0"?>
<catalog>
  <meta generated="2016-03-15"/>
  <item sku="A1">
    <name>Acme TV</name>
    <offer><price>399.00</price><currency>USD</currency></offer>
    <tag>sale</tag><tag>new</tag>
  </item>
  <item sku="B2">
    <name>Globex Radio</name>
    <offer><price>25.00</price><currency>USD</currency></offer>
  </item>
</catalog>
"""


class TestXMLSource:
    @pytest.fixture
    def feed_path(self, tmp_path):
        path = tmp_path / "feed.xml"
        path.write_text(FEED, encoding="utf-8")
        return path

    def test_reads_repeated_records(self, feed_path):
        table = XMLSource("feed", feed_path, record_tag="item").fetch()
        assert len(table) == 2
        assert table[0].raw("name") == "Acme TV"
        assert table[0].raw("offer.price") == "399.00"
        assert table[0].raw("@sku") == "A1"

    def test_repeated_children_indexed(self, feed_path):
        table = XMLSource("feed", feed_path, record_tag="item").fetch()
        assert table[0].raw("tag") == "sale"
        assert table[0].raw("tag.1") == "new"

    def test_missing_file(self, tmp_path):
        with pytest.raises(SourceError):
            XMLSource("x", tmp_path / "absent.xml", "item").fetch()

    def test_malformed_xml(self, tmp_path):
        path = tmp_path / "bad.xml"
        path.write_text("<catalog><item></catalog>", encoding="utf-8")
        with pytest.raises(SourceError):
            XMLSource("x", path, "item").fetch()

    def test_no_records(self, feed_path):
        with pytest.raises(SourceError):
            XMLSource("x", feed_path, "nonexistent").fetch()

