"""The durable substrate: snapshots, the journal, and crash plans.

Everything here is plain-filesystem: a store is pointed at a tmp_path,
written to, corrupted on purpose, reloaded cold — exactly what a process
death and restart would do.
"""

import datetime

import pytest

from repro.errors import CheckpointError, InjectedCrashError
from repro.ingest.checkpoint import CheckpointStore, CrashPlan
from repro.ingest.snapshots import SnapshotStore, decode_payload, encode_payload
from repro.model.records import Table
from repro.model.workingdata import (
    decode_table,
    encode_table,
    table_fingerprint,
)
from repro.sources.base import Document
from repro.sources.cursor import watermark_for

ROWS = [
    {"product": "laptop", "price": 999.0, "updated": datetime.date(2016, 3, 1)},
    {"product": "phone", "price": 499.5, "updated": datetime.date(2016, 3, 2)},
    {"product": "tablet", "price": None, "updated": None},
]


def make_table(name="catalog"):
    return Table.from_rows(name, ROWS, source=name).infer_schema()


class TestTableCodec:
    def test_round_trip_is_exact(self):
        table = make_table()
        clone = decode_table(encode_table(table))
        assert clone.name == table.name
        assert clone.schema == table.schema
        assert len(clone) == len(table)
        for original, restored in zip(table, clone):
            assert restored.rid == original.rid
            assert restored.source == original.source
            for attribute in original.cells:
                left = original.get(attribute)
                right = restored.get(attribute)
                assert right.raw == left.raw
                assert right.dtype == left.dtype
                assert right.confidence == left.confidence
                assert right.provenance == left.provenance

    def test_encoding_is_deterministic(self):
        table = make_table()
        assert encode_table(table) == encode_table(table)

    def test_fingerprint_ignores_process_local_rids(self):
        first = make_table()
        second = make_table()  # fresh rids from the global counter
        assert [r.rid for r in first] != [r.rid for r in second]
        assert table_fingerprint(first) == table_fingerprint(second)

    def test_fingerprint_sees_content_changes(self):
        changed = [dict(ROWS[0], price=1000.0)] + [dict(r) for r in ROWS[1:]]
        assert table_fingerprint(make_table()) != table_fingerprint(
            Table.from_rows("catalog", changed, source="catalog")
        )

    def test_unsupported_version_is_refused(self):
        payload = encode_table(make_table())
        payload["version"] = 999
        with pytest.raises(CheckpointError):
            decode_table(payload)


class TestSnapshotStore:
    def test_content_addressed_round_trip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        payload = encode_table(make_table())
        snapshot_id = store.put(payload)
        assert store.put(payload) == snapshot_id  # idempotent
        restored = decode_payload(store.get(snapshot_id))
        assert table_fingerprint(restored) == table_fingerprint(make_table())

    def test_documents_round_trip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        documents = [
            Document("http://a", "<html>a</html>", "web"),
            Document("http://b", "<html>b</html>", "web"),
        ]
        snapshot_id = store.put(encode_payload(documents))
        assert decode_payload(store.get(snapshot_id)) == documents

    def test_corrupt_object_is_quarantined(self, tmp_path):
        store = SnapshotStore(tmp_path)
        snapshot_id = store.put(encode_table(make_table()))
        victim = store._object_path(snapshot_id)
        victim.write_bytes(b'{"kind":"table","tampered":true}')
        with pytest.raises(CheckpointError):
            store.get(snapshot_id)
        assert not victim.exists()
        assert len(store.quarantined()) == 1
        with pytest.raises(CheckpointError):
            store.get(snapshot_id)  # gone, not silently trusted


class TestJournal:
    SIGNATURE = "sig-abc"

    def test_fresh_run_ids_are_deterministic(self, tmp_path):
        store = CheckpointStore(tmp_path)
        log = store.begin_run(self.SIGNATURE)
        assert log.run_id == "run-001"
        assert not log.resumed
        log.complete(payload=make_table())
        assert store.begin_run(self.SIGNATURE).run_id == "run-002"

    def test_incomplete_run_resumes_with_restored_steps(self, tmp_path):
        store = CheckpointStore(tmp_path)
        log = store.begin_run(self.SIGNATURE)
        table = make_table()
        log.commit("acquire:catalog", data={"mode": "full"}, payload=table)
        # Cold restart: a brand-new store over the same root.
        reopened = CheckpointStore(tmp_path)
        resumed = reopened.begin_run(self.SIGNATURE)
        assert resumed.resumed
        assert resumed.run_id == "run-001"
        assert resumed.resumed_from == "acquire:catalog"
        restored = resumed.restored("acquire:catalog")
        assert table_fingerprint(restored) == table_fingerprint(table)
        assert resumed.export()["acquisitions"] == {
            "catalog": {"mode": "full"}
        }

    def test_signature_mismatch_starts_fresh(self, tmp_path):
        store = CheckpointStore(tmp_path)
        log = store.begin_run(self.SIGNATURE)
        log.commit("acquire:catalog", payload=make_table())
        fresh = CheckpointStore(tmp_path).begin_run("another-plan")
        assert not fresh.resumed
        assert fresh.restored("acquire:catalog") is None

    def test_watermark_commit_survives_restart(self, tmp_path):
        store = CheckpointStore(tmp_path)
        log = store.begin_run(self.SIGNATURE)
        table = make_table()
        watermark = watermark_for(
            "catalog", table.to_rows(), "updated"
        )
        log.commit("acquire:catalog", payload=table, watermark=watermark)
        log.complete(payload=table)
        reopened = CheckpointStore(tmp_path)
        committed = reopened.watermarks()["catalog"]
        assert committed == watermark
        assert committed.cursor == datetime.date(2016, 3, 2)
        follow_on = reopened.begin_run(self.SIGNATURE)
        rows = follow_on.previous_rows("catalog")
        assert rows is not None and len(rows) == len(ROWS)

    def test_corrupt_journal_is_quarantined_loudly(self, tmp_path):
        store = CheckpointStore(tmp_path)
        log = store.begin_run(self.SIGNATURE)
        log.commit("acquire:catalog", payload=make_table())
        journal = tmp_path / "journal.json"
        journal.write_bytes(journal.read_bytes()[:-20] + b"garbage-tail")
        reopened = CheckpointStore(tmp_path)
        with pytest.raises(CheckpointError):
            reopened.begin_run(self.SIGNATURE)
        assert any(
            p.name.startswith("journal.json")
            for p in reopened.quarantined()
        )
        # The quarantine cleared the slate: ingestion restarts from scratch.
        restarted = reopened.begin_run(self.SIGNATURE)
        assert not restarted.resumed
        assert restarted.run_id == "run-001"

    def test_corrupt_snapshot_reruns_the_step(self, tmp_path):
        store = CheckpointStore(tmp_path)
        log = store.begin_run(self.SIGNATURE)
        snapshot_id = log.commit("acquire:catalog", payload=make_table())
        store.snapshots._object_path(snapshot_id).write_bytes(b"rotten")
        resumed = CheckpointStore(tmp_path).begin_run(self.SIGNATURE)
        assert resumed.resumed
        assert resumed.restored("acquire:catalog") is None  # rerun, not trust


class TestCrashPlan:
    def test_after_crash_leaves_the_step_committed(self, tmp_path):
        plan = CrashPlan.at("acquire:catalog", when="after")
        store = CheckpointStore(tmp_path, crash_plan=plan)
        log = store.begin_run("sig")
        with pytest.raises(InjectedCrashError):
            log.commit("acquire:catalog", payload=make_table())
        resumed = CheckpointStore(tmp_path).begin_run("sig")
        assert resumed.restored("acquire:catalog") is not None

    def test_before_crash_loses_the_step(self, tmp_path):
        plan = CrashPlan.at("acquire:catalog", when="before")
        store = CheckpointStore(tmp_path, crash_plan=plan)
        log = store.begin_run("sig")
        with pytest.raises(InjectedCrashError):
            log.commit("acquire:catalog", payload=make_table())
        resumed = CheckpointStore(tmp_path).begin_run("sig")
        assert resumed.restored("acquire:catalog") is None

    def test_each_scripted_step_fires_once(self):
        plan = CrashPlan.at("begin", when="after")
        with pytest.raises(InjectedCrashError):
            plan.check("after", "begin")
        plan.check("after", "begin")  # second pass sails through

    def test_unknown_phase_is_refused(self):
        with pytest.raises(CheckpointError):
            CrashPlan.at("begin", when="sideways")
