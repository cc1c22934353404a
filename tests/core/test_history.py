"""Tests for snapshot history and change detection (Velocity monitoring)."""

import pytest

from repro.core.history import Change, SnapshotHistory
from repro.model.records import Record, Table
from repro.model.schema import Schema

SCHEMA = Schema.of("product", "price")


def snapshot(rows):
    table = Table("wrangled", SCHEMA)
    for rid, product, price in rows:
        table.append(
            Record.of({"product": product, "price": price, "_truth": rid},
                      rid=rid)
        )
    return table


class TestDiff:
    def test_appeared_and_disappeared(self):
        old = snapshot([("e1", "TV", 100.0)])
        new = snapshot([("e2", "Radio", 20.0)])
        report = SnapshotHistory.diff(old, new)
        assert [c.kind for c in report] == ["appeared", "disappeared"]
        assert report.of_kind("appeared")[0].entity == "e2"

    def test_cell_changes(self):
        old = snapshot([("e1", "TV", 100.0)])
        new = snapshot([("e1", "TV", 90.0)])
        report = SnapshotHistory.diff(old, new)
        assert len(report) == 1
        change = report.changes[0]
        assert change.kind == "changed"
        assert change.attribute == "price"
        assert change.old_value == 100.0
        assert change.new_value == 90.0
        assert "->" in change.describe()

    def test_truth_column_ignored(self):
        old = snapshot([("e1", "TV", 100.0)])
        new = Table("wrangled", SCHEMA)
        new.append(Record.of({"product": "TV", "price": 100.0,
                              "_truth": "other"}, rid="e1"))
        assert len(SnapshotHistory.diff(old, new)) == 0

    def test_numeric_moves(self):
        old = snapshot([("e1", "TV", 100.0), ("e2", "Radio", 50.0)])
        new = snapshot([("e1", "TV", 90.0), ("e2", "Radio", 55.0)])
        report = SnapshotHistory.diff(old, new)
        moves = dict(report.numeric_moves("price"))
        assert moves["e1"] == pytest.approx(-0.1)
        assert moves["e2"] == pytest.approx(0.1)

    def test_for_attribute_and_summary(self):
        old = snapshot([("e1", "TV", 100.0)])
        new = snapshot([("e1", "TV set", 90.0), ("e2", "Radio", 1.0)])
        report = SnapshotHistory.diff(old, new)
        assert len(report.for_attribute("price")) == 1
        assert len(report.for_attribute("product")) == 1
        assert "1 appeared" in report.summary()


class TestHistory:
    def test_needs_two_snapshots(self):
        history = SnapshotHistory()
        history.record(snapshot([("e1", "TV", 1.0)]))
        with pytest.raises(ValueError):
            history.diff_latest()

    def test_diff_latest(self):
        history = SnapshotHistory()
        history.record(snapshot([("e1", "TV", 100.0)]))
        history.record(snapshot([("e1", "TV", 80.0)]))
        report = history.diff_latest()
        assert report.for_attribute("price")[0].new_value == 80.0

    def test_bounded_retention(self):
        history = SnapshotHistory()
        for price in (1.0, 2.0, 3.0):
            history.record(snapshot([("e1", "TV", price)]))
        assert len(history) == 2
        assert history.latest()[0].raw("price") == 3.0

    def test_diff_latest_reads_the_last_two_kept(self):
        history = SnapshotHistory()
        for price in (1.0, 2.0, 3.0):
            history.record(snapshot([("e1", "TV", price)]))
        (change,) = history.diff_latest().for_attribute("price")
        assert (change.old_value, change.new_value) == (2.0, 3.0)


class TestWranglerIntegration:
    def test_refresh_produces_change_report(self):
        from repro.context.data_context import DataContext
        from repro.context.user_context import UserContext
        from repro.core.wrangler import Wrangler
        from repro.datagen.products import TARGET_SCHEMA
        from repro.sources.memory import VolatileSource

        state = {"price": 100.0}

        def producer(index):
            return [
                {"product": "Acme Widget 1", "brand": "Acme",
                 "category": "widget",
                 "price": f"${state['price']:.2f}",
                 "updated": "2016-03-15"}
            ]

        user = UserContext.completeness_first("u", TARGET_SCHEMA)
        wrangler = Wrangler(user, DataContext("p"))
        wrangler.add_source(VolatileSource("shop", producer))
        wrangler.run()
        state["price"] = 80.0  # the retailer drops the price
        wrangler.refresh_source("shop")
        wrangler.run()
        report = wrangler.changes_since_last_run()
        moves = report.numeric_moves("price")
        assert moves and moves[0][1] == pytest.approx(-0.2)

    def test_a_tick_that_leaves_the_table_unchanged_reports_no_changes(self):
        from repro.context.data_context import DataContext
        from repro.context.user_context import UserContext
        from repro.core.wrangler import Wrangler
        from repro.datagen.products import TARGET_SCHEMA
        from repro.feedback.types import RelevanceFeedback
        from repro.sources.memory import VolatileSource

        state = {"price": 100.0}

        def producer(index):
            return [
                {"product": "Acme Widget 1", "brand": "Acme",
                 "category": "widget",
                 "price": f"${state['price']:.2f}",
                 "updated": "2016-03-15"}
            ]

        user = UserContext.completeness_first("u", TARGET_SCHEMA)
        wrangler = Wrangler(user, DataContext("p"))
        wrangler.add_source(VolatileSource("shop", producer))
        wrangler.run()
        state["price"] = 80.0
        wrangler.refresh_source("shop")
        wrangler.run()
        assert len(wrangler.changes_since_last_run()) > 0
        # The verdict re-selects the same mapping: fuse is cut off, and
        # the diff is this run's (empty), not the refresh's again.
        wrangler.apply_feedback(
            [RelevanceFeedback(source_name="shop", is_relevant=True)]
        )
        fuses = wrangler.flow.runs("fuse")
        wrangler.run()
        assert wrangler.flow.runs("fuse") == fuses
        assert len(wrangler.changes_since_last_run()) == 0
