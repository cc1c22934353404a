"""What a feedback tick reuses, checked on a driven wrangler.

A duplicate verdict moves no source belief, so the planner's selection
is served from the selector's memo: no gain is estimated.  A tick whose
fuse and repair are cut off hands ``run`` the very table the last run
assessed; its quality report is filed again rather than measured again,
and must equal a fresh analysis, annotations included.
"""

from __future__ import annotations

import datetime
import importlib.util
from pathlib import Path

import pytest

from repro.datagen import generate_world
from repro.feedback import DuplicateFeedback, ValueFeedback
from repro.model.annotations import AnnotationStore
from repro.quality.metrics import QualityAnalyser
from repro.selection.source_selection import SourceSelector

QUICKSTART = Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"


def _build_wrangler():
    spec = importlib.util.spec_from_file_location("quickstart_plan", QUICKSTART)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    world = generate_world(n_products=30, n_sources=4, seed=2016)
    return module.build_wrangler(world)


def counter(wrangler, name: str) -> float:
    return wrangler.telemetry.metrics.snapshot()["counters"].get(name, 0)


@pytest.fixture
def wrangler():
    wrangler = _build_wrangler()
    wrangler.run()
    return wrangler


@pytest.fixture
def gains(monkeypatch):
    """The number of ``SourceSelector.gain`` calls since set-up."""
    calls = []
    original = SourceSelector.gain

    def counted(self, profiles):
        calls.append(len(profiles))
        return original(self, profiles)

    monkeypatch.setattr(SourceSelector, "gain", counted)
    return calls


def _duplicate_verdict(wrangler):
    translated = wrangler.relations()["translated"]
    return DuplicateFeedback(
        rid_a=translated[0].rid, rid_b=translated[1].rid, is_duplicate=False
    )


class TestSelectionMemo:
    def test_a_duplicate_verdict_runs_no_gain(self, wrangler, gains):
        hits = counter(wrangler, "selection.memo_hits")
        wrangler.apply_feedback([_duplicate_verdict(wrangler)])
        wrangler.run()
        assert gains == []
        assert counter(wrangler, "selection.memo_hits") > hits

    def test_a_value_verdict_moves_beliefs_and_reselects(
        self, wrangler, gains
    ):
        record = wrangler.working.get("table", "wrangled")[0]
        wrangler.apply_feedback(
            [ValueFeedback(entity=record.rid, attribute="price",
                           is_correct=False)]
        )
        assert gains != []


class TestQualityReuse:
    def fresh(self, wrangler, table):
        """A fresh analysis of ``table`` into a store of its own."""
        store = AnnotationStore()
        analyser = QualityAnalyser(
            wrangler.data, store, today=wrangler.analyser.today
        )
        report = analyser.analyse(
            table,
            user=wrangler.user,
            master_key=wrangler.master_key,
            join_attribute=wrangler.join_attribute,
            date_attribute=wrangler.date_attribute,
            constraints=wrangler.constraints or None,
            annotate_as="table:wrangled",
        )
        return report, store

    @staticmethod
    def filed(annotations):
        return [
            (a.target, a.dimension, a.score, a.confidence, a.origin)
            for a in annotations
        ]

    def test_a_cut_off_tick_files_the_report_a_fresh_analysis_files(
        self, wrangler
    ):
        before = wrangler.working.get("table", "wrangled")
        filed_before = len(wrangler.working.annotations.for_target(
            "table:wrangled"
        ))
        reused = counter(wrangler, "quality.reports_reused")
        wrangler.apply_feedback([_duplicate_verdict(wrangler)])
        result = wrangler.run()
        assert result.table is before
        assert counter(wrangler, "quality.reports_reused") == reused + 1

        expected, store = self.fresh(wrangler, result.table)
        assert result.quality == expected
        added = wrangler.working.annotations.for_target("table:wrangled")[
            filed_before:
        ]
        assert self.filed(added) == self.filed(store)
        # The aid sequence runs on: the refiled annotations are new ones.
        assert all(a.aid > b.aid for a, b in zip(added[1:], added))

    def test_a_returned_report_is_the_callers_own(self, wrangler):
        first = wrangler.run().quality
        scores = dict(first.scores)
        first.scores.clear()
        assert wrangler.run().quality.scores == scores

    def test_a_moved_input_is_measured_again(self, wrangler):
        reused = counter(wrangler, "quality.reports_reused")
        wrangler.analyser.today = wrangler.analyser.today + datetime.timedelta(
            days=40
        )
        result = wrangler.run()
        assert counter(wrangler, "quality.reports_reused") == reused
        expected, __ = self.fresh(wrangler, result.table)
        assert result.quality == expected
