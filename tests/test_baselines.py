"""Tests for the static ETL baseline."""

import pytest

from repro.baselines.static_etl import StaticETL
from repro.datagen.htmlgen import random_listings, render_site
from repro.datagen.products import TARGET_SCHEMA, SourceSpec, generate_world
from repro.errors import PlanningError
from repro.sources.memory import MemoryDocumentSource, MemorySource


@pytest.fixture(scope="module")
def world():
    return generate_world(n_products=20, n_sources=3, seed=314)


class TestStaticETL:
    def test_requires_sources(self):
        with pytest.raises(PlanningError):
            StaticETL(TARGET_SCHEMA).run()

    def test_counts_manual_actions(self, world):
        etl = StaticETL(TARGET_SCHEMA)
        for name, rows in world.source_rows.items():
            etl.add_source(MemorySource(name, rows))
        assert etl.manual_actions == len(world.source_rows)

    def test_produces_output(self, world):
        etl = StaticETL(TARGET_SCHEMA)
        for name, rows in world.source_rows.items():
            etl.add_source(MemorySource(name, rows))
        output = etl.run()
        assert len(output) > 0
        assert output.schema is TARGET_SCHEMA

    def test_handles_document_sources(self):
        import random
        site = render_site("web", random_listings(12, random.Random(2)), "grid")
        etl = StaticETL(TARGET_SCHEMA)
        etl.add_source(MemoryDocumentSource("web", site.pages))
        output = etl.run()
        assert len(output) > 0
