"""A delta tick carries the committed view's records into the merged view.

``acquire_durable`` builds a merged view from the records of the view
the same :class:`~repro.ingest.checkpoint.CheckpointStore` object
committed before (``RunLog.live_view``), matched by row digest as a
multiset; only the new rows are typed and minted.  The oracle for the
merged view is ``Table.from_rows`` over the merged rows: the carried
table must fingerprint the same.  A store object that did not commit
the view (a new process) finds no live view and builds every row.  And
a crash on either side of a delta tick's ``acquire:`` commit, resumed on
the same store object, ends where the uninterrupted script ends.
"""

import csv
import datetime

import pytest

from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.core.wrangler import Wrangler
from repro.datagen.ontologies import product_ontology
from repro.datagen.products import TARGET_SCHEMA, generate_world
from repro.errors import InjectedCrashError
from repro.ingest.checkpoint import CheckpointStore, CrashPlan
from repro.ingest.incremental import acquire_durable
from repro.model.records import Table
from repro.model.workingdata import table_fingerprint
from repro.obs import Telemetry
from repro.sources.cursor import DELTA_COST_FLOOR
from repro.sources.files import CSVSource
from repro.sources.memory import MemorySource

TODAY = datetime.date(2016, 3, 15)

TWIN = {"product": "laptop", "price": "999.00", "seq": "000001"}
OTHER = {"product": "phone", "price": "499.00", "seq": "000002"}
NEW = {"product": "watch", "price": "199.00", "seq": "000003"}


def write_csv(path, rows):
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def acquire(source, store, telemetry=None):
    log = store.begin_run("sig")
    table = acquire_durable(source, log, telemetry)
    log.complete()
    return log, table


def reused(telemetry):
    return telemetry.metrics.counter("ingest.delta.records_reused").value


class TestMultisetCarry:
    def test_identical_rows_stay_distinct_records(self, tmp_path):
        """Two byte-identical rows in the committed view, a third copy
        and a new row in the delta: the two copies keep their two
        records, in order, the third is built afresh, and the view
        fingerprints as ``Table.from_rows`` over the merged rows."""
        path = tmp_path / "feed.csv"
        write_csv(path, [TWIN, TWIN, OTHER])
        source = CSVSource("feed", path, cursor="seq")
        store, telemetry = CheckpointStore(tmp_path / "store"), Telemetry()
        __, first = acquire(source, store, telemetry)
        assert first[0].rid != first[1].rid

        merged = [TWIN, TWIN, OTHER, TWIN, NEW]
        write_csv(path, merged)
        log, table = acquire(source, store, telemetry)
        assert log.export()["acquisitions"]["feed"]["mode"] == "delta"

        assert table.to_rows() == merged
        assert [table[i] is first[i] for i in range(3)] == [True] * 3
        assert len({record.rid for record in table}) == 5
        assert reused(telemetry) == 3
        assert table_fingerprint(table) == table_fingerprint(
            Table.from_rows("feed", merged, source="feed")
        )

    def test_the_delta_sways_the_vote_as_a_fresh_build_does(self, tmp_path):
        """The schema vote counts carried cells with their held dtypes:
        a delta that tips a column's plurality re-types the column just
        as a fresh build over every row does."""
        path = tmp_path / "feed.csv"
        rows = [{"code": str(n), "seq": f"{n:06d}"} for n in range(8)]
        rows.append({"code": "x", "seq": "000008"})
        write_csv(path, rows)
        source = CSVSource("feed", path, cursor="seq")
        store = CheckpointStore(tmp_path / "store")
        __, first = acquire(source, store)
        grown = rows + [
            {"code": "y", "seq": "000009"}, {"code": "z", "seq": "000010"}
        ]
        write_csv(path, grown)
        __, table = acquire(source, store)
        fresh = Table.from_rows("feed", grown, source="feed")
        assert first.schema != table.schema
        assert table.schema == fresh.schema
        assert table_fingerprint(table) == table_fingerprint(fresh)


class TestLiveViewIsPerStoreObject:
    def test_a_new_store_object_builds_every_row(self, tmp_path):
        path = tmp_path / "feed.csv"
        write_csv(path, [TWIN, OTHER])
        source = CSVSource("feed", path, cursor="seq")
        __, first = acquire(source, CheckpointStore(tmp_path / "store"))
        write_csv(path, [TWIN, OTHER, NEW])

        telemetry = Telemetry()
        log, table = acquire(
            source, CheckpointStore(tmp_path / "store"), telemetry
        )
        assert log.export()["acquisitions"]["feed"]["mode"] == "delta"
        assert reused(telemetry) == 0
        assert not {id(r) for r in table} & {id(r) for r in first}
        assert table_fingerprint(table) == table_fingerprint(
            Table.from_rows("feed", [TWIN, OTHER, NEW], source="feed")
        )

    def test_the_store_holds_one_view_per_source(self, tmp_path):
        path = tmp_path / "feed.csv"
        rows = [TWIN, OTHER]
        write_csv(path, rows)
        source = CSVSource("feed", path, cursor="seq")
        store = CheckpointStore(tmp_path / "store")
        for seq in range(4, 8):
            __, table = acquire(source, store)
            snapshot = store.load_state()["watermarks"]["feed"]["snapshot"]
            assert list(store._views) == ["feed"]
            assert store._views["feed"][0] == snapshot
            assert store._views["feed"][1] is table
            rows = rows + [dict(NEW, seq=f"{seq:06d}")]
            write_csv(path, rows)


def make_wrangler(world, store, rows):
    user = UserContext.precision_first("analyst", TARGET_SCHEMA, budget=50.0)
    data = DataContext("products").with_ontology(product_ontology())
    data.add_master("catalog", world.ground_truth)
    wrangler = Wrangler(
        user, data, master_key="catalog", join_attribute="product",
        today=TODAY, telemetry=Telemetry.manual(),
    )
    sources = {}
    for name in sorted(rows):
        sources[name] = MemorySource(
            name, rows[name][:-2], cost_per_access=world.specs[name].cost,
            cursor="seq",
        )
        wrangler.add_source(sources[name])
    wrangler.checkpointing(store)
    return wrangler, sources


class TestCrashAroundADeltaCommit:
    """Two delta ticks of one source on one store object; the first
    tick's ``acquire:`` commit is killed before or after its journal
    write, and the same wrangler resumes on the same store object."""

    @pytest.fixture(scope="class")
    def world(self):
        return generate_world(n_products=10, n_sources=2, seed=77)

    @pytest.fixture(scope="class")
    def rows(self, world):
        return {
            name: [dict(row, seq=seq) for seq, row in enumerate(source_rows)]
            for name, source_rows in world.source_rows.items()
        }

    def script(self, world, rows, root, when=None):
        """Cold run, then two ticks each growing the first planned
        source by one row: the final fingerprint, working-data
        fingerprints, ledger, and records carried on the second tick."""
        store = CheckpointStore(root)
        wrangler, sources = make_wrangler(world, store, rows)
        name = wrangler.run().plan.sources[0]
        for tick in (1, 2):
            sources[name].replace_rows(rows[name][: len(rows[name]) - 2 + tick])
            wrangler.refresh_source(name)
            counter = wrangler.telemetry.metrics.counter(
                "ingest.delta.records_reused"
            )
            before = counter.value
            if tick == 1 and when is not None:
                store.crash_plan = CrashPlan.at(f"acquire:{name}", when=when)
                with pytest.raises(InjectedCrashError):
                    wrangler.run()
            result = wrangler.run()
            assert result.ingest["acquisitions"][name]["mode"] == "delta"
        return {
            "name": name,
            "final": table_fingerprint(result.table),
            "working": wrangler.working.table_fingerprints(),
            "accesses": {n: s.accesses for n, s in sources.items()},
            "carried": counter.value - before,
            "runs": result.ingest["run_id"],
        }

    @pytest.fixture(scope="class")
    def uninterrupted(self, world, rows, tmp_path_factory):
        return self.script(world, rows, tmp_path_factory.mktemp("straight"))

    @pytest.mark.parametrize("when", ["before", "after"])
    def test_resume_on_the_same_store_object(
        self, world, rows, uninterrupted, tmp_path, when
    ):
        crashed = self.script(world, rows, tmp_path, when)
        assert crashed["final"] == uninterrupted["final"]
        assert crashed["working"] == uninterrupted["working"]
        assert crashed["runs"] == uninterrupted["runs"]
        expected = dict(uninterrupted["accesses"])
        if when == "before":
            # The lost commit's delta fetch is redone: one row of the
            # grown view, charged at the delta floor or pro rata.
            name = uninterrupted["name"]
            moved = 1 / (len(rows[name]) - 1)
            expected[name] += max(moved, DELTA_COST_FLOOR)
        assert crashed["accesses"] == pytest.approx(expected)
        # The second tick carries from the view the first one left:
        # live after a redone commit, replayed (so rebuilt) after a
        # restored one.
        if when == "before":
            assert crashed["carried"] == uninterrupted["carried"] > 0
        else:
            assert crashed["carried"] == 0
