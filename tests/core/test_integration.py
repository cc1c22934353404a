"""Cross-feature integration tests: AHP contexts, dataspace queries,
jobs-world wrangling, and the public API surface."""

import datetime

import pytest

from repro import (
    AHPComparison,
    DataContext,
    MemorySource,
    UserContext,
    Wrangler,
)
from repro.datagen import (
    JOB_SCHEMA,
    TARGET_SCHEMA,
    generate_job_world,
    generate_world,
    job_ontology,
    product_ontology,
)
from repro.evaluation import pair_metrics, truth_labels
from repro.model.annotations import Dimension
from repro.scale.queries import Atom, ConjunctiveQuery, Variable

TODAY = datetime.date(2016, 3, 15)


class TestAHPDrivenWrangling:
    def test_ahp_context_runs_end_to_end(self):
        comparison = (
            AHPComparison(["accuracy", "completeness", "timeliness", "cost"])
            .prefer("accuracy", "completeness", 3)
            .prefer("accuracy", "timeliness", 3)
            .prefer("accuracy", "cost", 5)
            .prefer("completeness", "cost", 2)
            .prefer("timeliness", "cost", 2)
        )
        user = UserContext.from_ahp("ahp-user", TARGET_SCHEMA, comparison)
        assert user.weight(Dimension.ACCURACY) > user.weight(Dimension.COST)

        world = generate_world(n_products=20, n_sources=3, seed=555)
        data = DataContext("p").with_ontology(product_ontology())
        wrangler = Wrangler(user, data, today=TODAY)
        for name, rows in world.source_rows.items():
            wrangler.add_source(MemorySource(name, rows))
        result = wrangler.run()
        assert len(result.table) > 0
        # accuracy-heavy AHP weights push the ER threshold up
        assert result.plan.er_threshold > 0.8


class TestDataspaceQueries:
    @pytest.fixture(scope="class")
    def wrangler(self):
        world = generate_world(n_products=25, n_sources=3, seed=556)
        user = UserContext.completeness_first("q", TARGET_SCHEMA)
        data = DataContext("p").with_ontology(product_ontology())
        wrangler = Wrangler(user, data, today=TODAY)
        for name, rows in world.source_rows.items():
            wrangler.add_source(MemorySource(name, rows))
        wrangler.run()
        return wrangler

    def test_relations_expose_working_data(self, wrangler):
        relations = wrangler.relations()
        assert "wrangled" in relations
        assert "translated" in relations
        assert any(key.startswith("raw/") for key in relations)
        assert any(key.startswith("mapped/") for key in relations)

    def test_query_over_wrangled(self, wrangler):
        query = ConjunctiveQuery(
            ("p", "b"),
            (Atom("wrangled", {"product": Variable("p"),
                               "brand": Variable("b")}),),
        )
        rows = wrangler.query(query)
        assert rows
        assert all("p" in row and "b" in row for row in rows)

    def test_query_joins_wrangled_to_raw(self, wrangler):
        # Which wrangled brands also appear in a specific raw source?
        raw_name = next(
            key for key in wrangler.relations() if key.startswith("mapped/")
        )
        query = ConjunctiveQuery(
            ("b",),
            (
                Atom("wrangled", {"brand": Variable("b")}),
                Atom(raw_name, {"brand": Variable("b")}),
            ),
        )
        rows = wrangler.query(query)
        assert rows  # overlap must exist: wrangled derives from that source


class TestJobsWorldIntegration:
    def test_jobs_world_wrangles_with_reasonable_quality(self):
        world = generate_job_world(n_jobs=40, n_boards=3, seed=557)
        user = UserContext(
            "jobs",
            JOB_SCHEMA,
            weights={Dimension.ACCURACY: 0.4, Dimension.TIMELINESS: 0.3,
                     Dimension.COMPLETENESS: 0.15, Dimension.COST: 0.15},
        )
        data = DataContext("jobs").with_ontology(job_ontology())
        wrangler = Wrangler(user, data, date_attribute="posted",
                            today=world.today)
        for board, rows in world.board_rows.items():
            wrangler.add_source(MemorySource(board, rows))
        result = wrangler.run()
        translated = wrangler.working.get("table", "translated")
        metrics = pair_metrics(result.resolution, truth_labels(translated))
        assert metrics.recall > 0.7
        assert metrics.precision > 0.5
        # salaries were normalised from '£65k'-style strings to floats
        salaries = [
            record.raw("salary")
            for record in result.table
            if not record.get("salary").is_missing
        ]
        assert salaries
        assert all(isinstance(s, float) and s > 10_000 for s in salaries)


class TestPublicAPI:
    def test_top_level_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_subpackage_all_exports_resolve(self):
        import importlib

        for module_name in (
            "repro.model", "repro.context", "repro.sources",
            "repro.extraction", "repro.matching", "repro.mapping",
            "repro.resolution", "repro.fusion", "repro.quality",
            "repro.feedback", "repro.selection",
            "repro.scale", "repro.core", "repro.baselines",
            "repro.datagen",
        ):
            module = importlib.import_module(module_name)
            for name in module.__all__:
                assert getattr(module, name) is not None, (
                    f"{module_name}.{name} missing"
                )
