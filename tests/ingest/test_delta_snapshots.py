"""Row-level delta snapshots, with replay as the oracle.

A source's view behind its watermark and the run's output are each
committed as a delta over the snapshot the same store object committed
last in that lineage: the base id, an ``order`` vector and the new
records.  Whatever a tick writes, replaying the committed ids must give
back the live tables byte for byte (``encode_table``); a store object
in a new process must restore a step whose snapshot is a delta chain;
a rotten link is quarantined, not trusted; and no chain grows past
``MAX_CHAIN_DEPTH``.  The refresh script is the one the carried-work
oracle drives (``tests/core/test_carried_work.py::RefreshScript``).
"""

import importlib.util
import os
from pathlib import Path

import pytest

from repro.errors import InjectedCrashError
from repro.ingest.checkpoint import MAX_CHAIN_DEPTH, CheckpointStore, CrashPlan
from repro.ingest.snapshots import SnapshotStore
from repro.model.records import Record, Table
from repro.model.workingdata import canonical_bytes, encode_table
from repro.obs import Telemetry

CARRIED_WORK = Path(__file__).parents[1] / "core" / "test_carried_work.py"


def _carried_work():
    spec = importlib.util.spec_from_file_location("carried_work", CARRIED_WORK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


carried_work = _carried_work()


def refresh_script(root, seed, monkeypatch):
    """The carried-work refresh script over the world of ``seed``."""
    generate_world = carried_work.generate_world
    monkeypatch.setattr(
        carried_work, "generate_world",
        lambda **options: generate_world(**{**options, "seed": seed}),
    )
    return carried_work.RefreshScript(root)


def encoded(table):
    return canonical_bytes(encode_table(table))


def kind(store, snapshot_id):
    return store.snapshots.get(snapshot_id)["kind"]


def counter(script, name):
    return script.wrangler.telemetry.metrics.counter(name).value


def rot(store, snapshot_id):
    path = store.snapshots._object_path(snapshot_id)
    path.write_bytes(path.read_bytes().replace(b'"kind"', b'"kine"', 1))


class TestSnapshotStorePut:
    def test_a_rotten_object_is_rewritten_on_put(self, tmp_path):
        store = SnapshotStore(tmp_path)
        payload = encode_table(Table.from_rows("t", [{"a": 1}, {"a": 2}]))
        snapshot_id = store.put(payload)
        store._object_path(snapshot_id).write_bytes(b"rotten")
        assert store.put(payload) == snapshot_id
        assert store.get(snapshot_id) == payload
        assert [p.read_bytes() for p in store.quarantined()] == [b"rotten"]

    def test_an_intact_object_is_left_untouched(self, tmp_path):
        store = SnapshotStore(tmp_path)
        payload = encode_table(Table.from_rows("t", [{"a": 1}]))
        path = store._object_path(store.put(payload))
        before = os.stat(path)
        store.put(payload)
        after = os.stat(path)
        assert (after.st_ino, after.st_mtime_ns) == (
            before.st_ino, before.st_mtime_ns,
        )
        assert store.quarantined() == []


class TestChains:
    """One lineage (the run's output) committed many times by hand."""

    def test_depth_is_bounded_and_every_commit_replays(self, tmp_path):
        telemetry = Telemetry()
        store = CheckpointStore(tmp_path, telemetry=telemetry)
        records = [Record.of({"n": n}, source="s") for n in range(10)]
        schema = Table.from_rows("t", [{"n": 0}]).schema
        kinds, committed = [], []
        for tick in range(2 * MAX_CHAIN_DEPTH + 3):
            records = records[1:] + [Record.of({"n": 10 + tick}, source="s")]
            table = Table("t", schema, records)
            log = store.begin_run("sig")
            snapshot_id = log.complete(payload=table)
            kinds.append(kind(store, snapshot_id))
            committed.append((snapshot_id, encoded(table)))
            assert len(store._output.chain) - 1 <= MAX_CHAIN_DEPTH
        # A full snapshot, MAX_CHAIN_DEPTH deltas, and again.
        period = ["table"] + ["table-delta"] * MAX_CHAIN_DEPTH
        assert kinds == (period * 3)[: len(kinds)]
        reopened = CheckpointStore(tmp_path)
        for snapshot_id, data in committed:
            assert encoded(reopened.replay(snapshot_id)) == data
        metrics = telemetry.metrics
        assert metrics.counter("ingest.snapshots.full").value == kinds.count(
            "table"
        )
        assert metrics.counter("ingest.snapshots.delta").value == (
            kinds.count("table-delta")
        )
        # A full snapshot encodes its ten records, a delta its one new one.
        assert metrics.counter("ingest.snapshots.records_encoded").value == (
            10 * kinds.count("table") + kinds.count("table-delta")
        )

    def test_more_than_half_new_rows_is_written_full(self, tmp_path):
        store = CheckpointStore(tmp_path)
        base = Table.from_rows("t", [{"n": n} for n in range(4)])
        store.begin_run("sig").complete(payload=base)
        half = Table("t", base.schema, base.records[:2] + [
            Record.of({"n": 8}, source="t"), Record.of({"n": 9}, source="t"),
        ])
        assert kind(store, store.begin_run("sig").complete(payload=half)) == (
            "table-delta"
        )
        most = Table("t", base.schema, half.records[:1] + [
            Record.of({"n": n}, source="t") for n in (10, 11, 12)
        ])
        assert kind(store, store.begin_run("sig").complete(payload=most)) == (
            "table"
        )

    def test_a_commit_after_the_table_was_mutated_stays_exact(self, tmp_path):
        """The base is the record list as committed, not the live list."""
        store = CheckpointStore(tmp_path)
        table = Table.from_rows("t", [{"n": n} for n in range(4)])
        store.begin_run("sig").complete(payload=table)
        table.records.reverse()
        table.append(Record.of({"n": 4}, source="t"))
        snapshot_id = store.begin_run("sig").complete(payload=table)
        assert kind(store, snapshot_id) == "table-delta"
        assert encoded(CheckpointStore(tmp_path).replay(snapshot_id)) == (
            encoded(table)
        )


@pytest.mark.parametrize("seed", [2016, 1, 7])
def test_every_tick_replays_to_its_live_tables(tmp_path, seed, monkeypatch):
    script = refresh_script(tmp_path, seed, monkeypatch)
    store = script.store
    encoded_before = counter(script, "ingest.snapshots.records_encoded")
    committed_rows = 0
    for index in range(10):
        name = script.tick(index)
        committed_rows += len(script.result.table) + len(store._views[name].table)
        assert script.result.ingest["acquisitions"][name]["mode"] == "delta"
        output = script.result.ingest["output_snapshot"]
        view = store.load_state()["watermarks"][name]["snapshot"]
        assert kind(store, output) == kind(store, view) == "table-delta"
        assert encoded(store.replay(output)) == encoded(script.result.table)
        assert encoded(store.replay(view)) == encoded(store._views[name].table)
        for held in [store._output, *store._views.values()]:
            assert len(held.chain) - 1 <= MAX_CHAIN_DEPTH
    # Two deltas a tick, encoding under a fifth of the rows they stand for.
    assert counter(script, "ingest.snapshots.delta") == 20
    encoded_rows = (
        counter(script, "ingest.snapshots.records_encoded") - encoded_before
    )
    assert 5 * encoded_rows < committed_rows


def test_a_new_store_object_restores_a_delta_chain(tmp_path, monkeypatch):
    """Die before ``complete`` on the second refresh of a source: its
    ``acquire:`` step is committed as a delta over a delta over the
    cold run's view, and a store object that never held the view
    restores it from disk."""
    script = refresh_script(tmp_path, 2016, monkeypatch)
    store = script.store
    sources = script.result.plan.sources
    script.tick(0)
    store.crash_plan = CrashPlan.at("complete", when="before")
    with pytest.raises(InjectedCrashError):
        script.tick(len(sources))
    name = sources[0]
    held = store._views[name]
    assert len(held.chain) == 3
    assert [kind(store, link) for link in held.chain] == [
        "table-delta", "table-delta", "table",
    ]

    reopened = CheckpointStore(tmp_path / "checkpoints")
    signature = reopened.load_state()["current"]["signature"]
    log = reopened.begin_run(signature)
    assert log.resumed
    assert encoded(log.restored(f"acquire:{name}")) == encoded(held.table)


def test_a_rotten_middle_link_is_quarantined(tmp_path, monkeypatch):
    """Rot the middle link of a source's view chain: the next refresh
    of that source finds it by bytes, quarantines and counts it, refuses
    the delta and commits a full view; the chain then grows again."""
    script = refresh_script(tmp_path, 2016, monkeypatch)
    store = script.store
    sources = script.result.plan.sources
    first = max(
        range(len(sources)), key=lambda i: len(script.held_back[sources[i]])
    )
    name = sources[first]
    ticks = iter(range(first, 100, len(sources)))
    script.tick(next(ticks))
    script.tick(next(ticks))
    chain = store._views[name].chain
    assert len(chain) == 3
    rot(store, chain[1])

    script.tick(next(ticks))
    assert script.result.ingest["acquisitions"][name]["mode"] == (
        "fallback-full"
    )
    assert counter(script, "ingest.restore.corrupt") == 1
    assert counter(script, "ingest.delta.fallbacks") == 1
    assert [p.name for p in store.quarantined()] == [f"{chain[1]}.json"]
    view = store.load_state()["watermarks"][name]["snapshot"]
    assert kind(store, view) == "table"
    assert store._views[name].chain == (view,)
    assert encoded(store.replay(view)) == encoded(store._views[name].table)
    assert encoded(store.replay(script.result.ingest["output_snapshot"])) == (
        encoded(script.result.table)
    )


def test_a_rotten_output_link_restarts_the_output_chain(tmp_path, monkeypatch):
    script = refresh_script(tmp_path, 2016, monkeypatch)
    store = script.store
    script.tick(0)
    script.tick(1)
    chain = store._output.chain
    assert len(chain) == 3
    rot(store, chain[1])
    script.tick(2)
    output = script.result.ingest["output_snapshot"]
    assert kind(store, output) == "table"
    assert store._output.chain == (output,)
    assert counter(script, "ingest.restore.corrupt") == 1
    assert encoded(store.replay(output)) == encoded(script.result.table)
