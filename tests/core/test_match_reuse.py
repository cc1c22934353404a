"""A source whose matcher inputs did not move keeps its correspondences.

``Wrangler._stage_match`` returns a source's last correspondences again
when nothing the matcher reads has moved: the column names, each
column's raw 50-value instance sample, the plan's channels and
threshold, the match feedback on the source's columns, the target
schema and the data context.  The oracle: wherever one of them moves,
the stage re-scores, and what it returns equals a fresh
``SchemaMatcher``'s correspondences (all but the minted ``match_id``);
where none moves — rows appended past every column's sample — it
returns the very list it returned before and counts ``matching.reused``.
"""

from dataclasses import replace

import pytest

from repro import DataContext, UserContext, Wrangler
from repro.context.ontology import Ontology
from repro.datagen import TARGET_SCHEMA, generate_world, product_ontology
from repro.feedback import MatchFeedback
from repro.matching.schema_matching import SAMPLE_SIZE, SchemaMatcher
from repro.model.records import Table
from repro.sources.memory import MemorySource

INITIAL = 80


def scored(correspondences):
    return [
        (c.source_attribute, c.target_attribute, c.confidence, c.evidence)
        for c in correspondences
    ]


class Session:
    """The quickstart contexts over MemorySources holding the first
    ``INITIAL`` rows of each retailer."""

    def __init__(self):
        self.world = generate_world(n_products=160, n_sources=3, seed=2016)
        data = (
            DataContext("products")
            .with_ontology(product_ontology())
            .add_master("catalog", self.world.ground_truth)
        )
        user = UserContext.precision_first("analyst", TARGET_SCHEMA, budget=40.0)
        self.wrangler = Wrangler(user, data)
        self.sources = {}
        for name, rows in self.world.source_rows.items():
            self.sources[name] = MemorySource(name, rows[:INITIAL])
            self.wrangler.add_source(self.sources[name])
        self.result = self.wrangler.run()
        self.name = self.result.plan.sources[0]

    @property
    def reused(self):
        return self.wrangler.telemetry.metrics.counter("matching.reused").value

    def rows(self, extra=0):
        return self.world.source_rows[self.name][: INITIAL + extra]

    def refresh(self, rows):
        self.sources[self.name].replace_rows(rows)
        self.wrangler.refresh_source(self.name)
        self.result = self.wrangler.run()

    def match(self):
        return self.wrangler.flow.value(f"match:{self.name}")

    def inputs(self, plan=None):
        flow = self.wrangler.flow
        return {
            f"acquire:{self.name}": flow.value(f"acquire:{self.name}"),
            "plan": plan or flow.value("plan"),
        }

    def fresh(self, plan=None):
        """A fresh matcher's correspondences for the source's table."""
        inputs = self.inputs(plan)
        plan = inputs["plan"]
        return SchemaMatcher(
            self.wrangler.data,
            channels=plan.matcher_channels,
            threshold=plan.match_threshold,
            feedback=self.wrangler._match_evidence,
        ).match(inputs[f"acquire:{self.name}"], TARGET_SCHEMA)

    def assert_rescored(self, before, last, plan=None):
        """The stage re-scored (nothing reused, a new list) and agrees
        with a fresh matcher."""
        result = self.wrangler._stage_match(self.name, self.inputs(plan))
        assert self.reused == before
        assert result is not last
        assert scored(result) == scored(self.fresh(plan))
        return result


@pytest.fixture
def session():
    return Session()


def test_an_append_past_every_sample_keeps_the_correspondences(session):
    table = session.wrangler.flow.value(f"acquire:{session.name}")
    for column in table.schema.names:
        populated = [
            r.raw(column) for r in table
            if r.raw(column) is not None and str(r.raw(column)).strip()
        ]
        assert len(populated) >= SAMPLE_SIZE, column
    last, reused, mappings = (
        session.match(), session.reused,
        session.wrangler.flow.runs(f"mapping:{session.name}"),
    )
    session.refresh(session.rows(extra=5))
    assert session.reused == reused + 1
    assert session.match() is last
    assert scored(last) == scored(session.fresh())
    # The unchanged match cuts the mapping off.
    assert session.wrangler.flow.runs(f"mapping:{session.name}") == mappings


def test_a_moved_sample_value_rescores(session):
    rows = [dict(row) for row in session.rows()]
    column = next(k for k in rows[0] if not k.startswith("_"))
    rows[0][column] = "https://moved.example/value"
    last, reused = session.match(), session.reused
    session.refresh(rows)
    assert session.reused == reused
    assert session.match() is not last
    assert scored(session.match()) == scored(session.fresh())


@pytest.mark.parametrize("change", ["new", "renamed"])
def test_a_new_or_renamed_column_rescores(session, change):
    rows = [dict(row) for row in session.rows()]
    if change == "new":
        for row in rows:
            row["colour"] = "red"
    else:
        column = next(k for k in rows[0] if not k.startswith("_"))
        rows = [
            {("renamed" if key == column else key): value
             for key, value in row.items()}
            for row in rows
        ]
    last, reused = session.match(), session.reused
    session.refresh(rows)
    assert session.reused == reused
    assert session.match() is not last
    assert scored(session.match()) == scored(session.fresh())


def test_new_match_feedback_rescores(session):
    renames = session.world.renames[session.name]
    last, reused = session.match(), session.reused
    session.wrangler.apply_feedback([MatchFeedback(
        source_name=session.name,
        source_attribute=renames["brand"],
        target_attribute="product",
        is_correct=False,
    )])
    session.result = session.wrangler.run()
    assert session.reused == reused
    assert session.match() is not last
    assert scored(session.match()) == scored(session.fresh())


@pytest.mark.parametrize(
    "moved",
    [
        {"match_threshold": 0.97},
        {"matcher_channels": ("name", "ontology")},
    ],
)
def test_a_plan_threshold_or_channel_change_rescores(session, moved):
    plan = replace(session.wrangler.flow.value("plan"), **moved)
    assert session.assert_rescored(session.reused, session.match(), plan)


def test_add_reference_after_a_run_rescores(session):
    session.wrangler.data.add_reference(
        "brands", Table.from_rows("brands", [{"brand": "Globex"}])
    )
    session.assert_rescored(session.reused, session.match())


def test_with_ontology_after_a_run_rescores(session):
    ontology = Ontology("other")
    ontology.add_concept("Product", synonyms=("offer_title",))
    session.wrangler.data.with_ontology(ontology)
    session.assert_rescored(session.reused, session.match())


def test_an_unmoved_stage_call_returns_the_last_list(session):
    last, reused = session.match(), session.reused
    assert session.wrangler._stage_match(session.name, session.inputs()) is last
    assert session.reused == reused + 1
