"""The raw-rows hook of structured sources, against the typed tables it
replaced.

A structured source supplies ``_rows()``; ``_load()`` types them, a delta
``fetch_delta`` digests and filters them raw, and a probe types only the
rows it keeps.  The oracles are the tables the sources built before:
``Table.from_rows`` over the source's rows as given (a ``Value`` cell
kept as it was), whose ``to_rows()`` the hook must equal, and the probe
that typed every row and kept the first 25 records under the full
table's schema — equal, cell for cell, to the new probe, and equal in
what the wrangler reads of it (the schema it votes from the sample).
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from repro.datagen import generate_world
from repro.model.provenance import Provenance
from repro.model.records import Table
from repro.model.schema import DataType
from repro.model.values import Value
from repro.sources.cursor import watermark_for
from repro.sources.files import CSVSource
from repro.sources.memory import MemorySource, VolatileSource

BENCH = Path(__file__).resolve().parents[2] / "bench"


def old_probe(name, rows, limit=25):
    """The probe as it was: every row typed, the first ``limit`` kept
    under the whole table's schema."""
    table = Table.from_rows(name, rows, source=name)
    return Table(name, table.schema, list(table.records[:limit]))


def cells(table):
    return [dict(record.cells) for record in table.records]


class TestRowsEqualTheTypedTablesRows:
    def test_csv(self, tmp_path):
        path = tmp_path / "shop.csv"
        path.write_text(
            "name,price,seq\nTV,$399,1\nRadio,,2\n\nLamp\n", encoding="utf-8"
        )
        source = CSVSource("shop", path)
        rows = source._rows()
        assert rows == [
            {"name": "TV", "price": "$399", "seq": "1"},
            {"name": "Radio", "price": None, "seq": "2"},
            {"name": "Lamp", "price": None, "seq": None},
        ]
        assert rows == Table.from_rows("shop", rows, source="shop").to_rows()
        assert rows == source.fetch().to_rows()

    def test_memory_with_value_cells_and_none(self):
        given = [
            {"name": Value.of("TV", Provenance.source("x"), 0.4), "price": 3},
            {"name": "Radio", "price": Value(None)},
            {"name": None, "price": Value("$5", DataType.STRING)},
        ]
        source = MemorySource("shop", given)
        today = Table.from_rows("shop", given, source="shop").to_rows()
        assert source._rows() == today
        assert source.fetch().to_rows() == today
        # Each read hands out its own rows.
        source._rows()[0]["name"] = "mutated"
        assert source._rows() == today

    def test_volatile_calls_its_producer_once_per_read(self):
        calls = []

        def producer(index):
            calls.append(index)
            return [{"tick": index, "name": Value.of(f"item-{index}")}]

        source = VolatileSource("feed", producer)
        assert source._rows() == [{"tick": 0, "name": "item-0"}]
        table = source.fetch()
        assert table.to_rows() == Table.from_rows(
            "feed", producer(1), source="feed"
        ).to_rows()
        source.probe()
        source.fetch_delta(None)
        assert calls == [0, 1, 1, 2, 3]

    def test_a_delta_fetch_returns_the_rows_past_the_cursor_untyped(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "feed.csv"
        path.write_text("seq,name\n1,a\n2,b\n", encoding="utf-8")
        source = CSVSource("feed", path, cursor="seq")
        first = source.fetch_delta(None)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("3,c\n")
        monkeypatch.setattr(
            Table, "from_rows",
            classmethod(lambda *a, **k: pytest.fail("a delta read typed rows")),
        )
        batch = source.fetch_delta(first.watermark)
        assert batch.mode == "delta" and batch.table is None
        assert batch.rows == ({"seq": "3", "name": "c"},)
        rows = source._rows()
        assert batch.watermark == watermark_for(
            "feed", rows, "seq", previous=first.watermark
        )


class TestProbeTypesOnlyItsSample:
    @staticmethod
    def assert_probe_parity(name, rows, limit=25):
        source = MemorySource(name, rows)
        probe = source.probe(limit)
        oracle = old_probe(name, rows, limit)
        assert source.size_hint() == len(rows)
        assert cells(probe) == cells(oracle)
        assert probe.schema.names == oracle.schema.names
        # What the wrangler reads: the vote over the sample's cells, which
        # keeps the full table's vote for a column the sample leaves None.
        assert probe.counted_schema().schema == oracle.infer_schema().schema
        for attribute in oracle.schema:
            if all(r.get(attribute.name) is None for r in rows[:limit]):
                assert probe.schema[attribute.name] == attribute

    def test_quickstart_world(self):
        world = generate_world(n_products=60, n_sources=6, seed=2016)
        for name, rows in world.source_rows.items():
            self.assert_probe_parity(name, rows)

    def test_bench_fleet(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH))
        # bench/workloads.py imports its sibling ``checks`` by name; the
        # module leaves ``sys.modules`` with the test.
        monkeypatch.delitem(sys.modules, "checks", raising=False)
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", BENCH / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        world = workloads.build_world(300, 201600, workloads.FLEET)
        for name, rows in world.source_rows.items():
            self.assert_probe_parity(name, rows)

    def test_a_column_the_sample_leaves_none_takes_the_full_vote(self):
        rng = random.Random(7)
        rows = [{"name": f"item {i}", "stock": None} for i in range(30)]
        rows += [{"name": "late", "stock": str(rng.randrange(9))} for _ in range(8)]
        rows.append({"name": "last", "stock": "4", "only_late": "2016-01-02"})
        self.assert_probe_parity("shop", rows)
        probe = MemorySource("shop", rows).probe()
        assert probe.schema["stock"].dtype is DataType.INTEGER
        assert probe.schema["only_late"].dtype is DataType.DATE
        assert probe.schema.names == ("name", "stock", "only_late")

    def test_the_probe_types_nothing_past_its_sample(self, monkeypatch):
        import repro.model.schema as schema_module

        rows = [{"name": f"item {i}", "price": f"${i}.50"} for i in range(200)]
        typed = []
        real = schema_module.infer_type
        monkeypatch.setattr(
            schema_module, "infer_type", lambda v: typed.append(v) or real(v)
        )
        MemorySource("shop", rows).probe(limit=10)
        assert sorted(typed) == sorted(
            value for row in rows[:10] for value in row.values()
        )
