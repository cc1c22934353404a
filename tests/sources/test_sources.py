"""Tests for data sources and the source registry."""

import pytest

from repro.errors import SourceError
from repro.model.schema import DataType
from repro.sources.base import SourceMetadata
from repro.sources.files import CSVSource
from repro.sources.memory import MemoryDocumentSource, MemorySource, VolatileSource
from repro.sources.registry import SourceRegistry

ROWS = [
    {"name": "TV", "price": "$399"},
    {"name": "Radio", "price": "$25"},
]


class TestMetadata:
    def test_validation(self):
        with pytest.raises(SourceError):
            SourceMetadata("")
        with pytest.raises(SourceError):
            SourceMetadata("x", cost_per_access=-1)
        with pytest.raises(SourceError):
            SourceMetadata("x", change_rate=-1)


class TestMemorySource:
    def test_fetch_builds_table_with_provenance(self):
        source = MemorySource("shop", ROWS)
        table = source.fetch()
        assert table.name == "shop"
        assert len(table) == 2
        assert table[0]["name"].provenance.sources() == {"shop"}

    def test_access_accounting(self):
        source = MemorySource("shop", ROWS, cost_per_access=2.5)
        source.fetch()
        source.fetch()
        assert source.accesses == 2
        assert source.total_cost == 5.0

    def test_replace_rows_models_velocity(self):
        source = MemorySource("shop", ROWS)
        source.replace_rows([{"name": "Laptop", "price": "$999"}])
        assert source.fetch().raw_column("name") == ["Laptop"]


class TestVolatileSource:
    def test_contents_drift_per_fetch(self):
        source = VolatileSource(
            "ticker", lambda i: [{"tick": i, "price": 100 + i}]
        )
        assert source.fetch()[0].raw("tick") == 0
        assert source.fetch()[0].raw("tick") == 1


class TestFileSources:
    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "products.csv"
        path.write_text("name,price\nTV,$399\nRadio,\n", encoding="utf-8")
        table = CSVSource("csv-shop", path).fetch()
        assert table.raw_column("name") == ["TV", "Radio"]
        assert table[1].get("price").is_missing
        assert table.schema["price"].dtype is DataType.CURRENCY

    def test_csv_missing_file(self, tmp_path):
        with pytest.raises(SourceError):
            CSVSource("x", tmp_path / "absent.csv").fetch()


class TestDocumentSource:
    def test_fetch_documents(self):
        source = MemoryDocumentSource(
            "web-shop", [("http://s/p1", "<html>1</html>")]
        )
        docs = source.fetch()
        assert docs[0].url == "http://s/p1"
        assert docs[0].source == "web-shop"


class TestRegistry:
    def test_register_and_lookup(self):
        registry = SourceRegistry()
        registry.register(MemorySource("a", ROWS))
        registry.register(MemoryDocumentSource("b", []))
        assert len(registry) == 2
        assert "a" in registry
        assert registry.get("a").name == "a"
        assert [s.name for s in registry.documents()] == ["b"]

    def test_duplicate_name_rejected(self):
        registry = SourceRegistry()
        registry.register(MemorySource("a", ROWS))
        with pytest.raises(SourceError):
            registry.register(MemorySource("a", ROWS))

    def test_unknown_lookup_raises(self):
        with pytest.raises(SourceError):
            SourceRegistry().get("missing")

    def test_reliability_updates(self):
        registry = SourceRegistry()
        registry.register(MemorySource("a", ROWS))
        before = registry.reliability("a").mean
        registry.observe("a", False)
        registry.observe("a", False)
        assert registry.reliability("a").mean < before
        assert "a" in registry.reliability_scores()

    def test_cost_accounting(self):
        registry = SourceRegistry()
        registry.register(MemorySource("a", ROWS, cost_per_access=3.0))
        registry.register(MemorySource("b", ROWS, cost_per_access=1.0))
        registry.get("a").fetch()
        assert registry.total_cost() == 3.0
