"""The durable run journal: commit, crash anywhere, resume.

One ``journal.json`` per store holds everything that must survive a
process death: how many runs completed, each source's committed
:class:`~repro.sources.cursor.Watermark` (with the snapshot id of the
view it describes), and the current run's committed steps — exactly the
``probe:`` / ``acquire:`` payloads a resume reads back through
:meth:`RunLog.restored`, then ``complete``.  Every commit rewrites the
journal atomically (payload snapshots first, then one ``os.replace``),
so at any instant the file on disk describes a consistent prefix of the
run — the recovery invariant the kill-at-every-checkpoint matrix in
``tests/ingest/test_crash_recovery.py`` proves.

A journal whose checksum does not match its body is *quarantined*, never
trusted: the store restarts from the watermark-free state rather than
resume from corrupt history.

:class:`CrashPlan` is the chaos hook: it names commit steps at which an
:class:`~repro.errors.InjectedCrashError` fires either *before* the
journal write (progress lost, work must redo) or *after* it (progress
durable, resume must not redo) — the two sides of every crash window.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, NamedTuple, Sequence

from repro.errors import (
    CheckpointError,
    InjectedCrashError,
    SnapshotVersionError,
)
from repro.ingest.snapshots import (
    SnapshotStore,
    apply_table_delta,
    decode_payload,
    encode_payload,
    encode_table_delta,
)
from repro.io import atomic_write_bytes
from repro.model.records import Record, Table
from repro.model.workingdata import canonical_bytes, content_digest, row_digest
from repro.sources.cursor import Watermark

__all__ = [
    "CheckpointStore",
    "CrashPlan",
    "JOURNAL_VERSION",
    "MAX_CHAIN_DEPTH",
    "RunLog",
]

#: Version stamp of the journal layout; bump on any change so old stores
#: are detected, not misread.
JOURNAL_VERSION = 1

#: The most deltas a snapshot chain stacks on its full snapshot; the
#: commit after that is written full.  Deep enough that a full rewrite
#: of a refresh tick's output lands once in sixteen ticks, shallow
#: enough that replaying a chain decodes at most seventeen objects.
MAX_CHAIN_DEPTH = 16

_JOURNAL_SCHEMA = "repro.ingest/journal"


@dataclass(frozen=True)
class CrashPlan:
    """Scripted process deaths at named checkpoint steps.

    ``before`` steps die with the commit's journal write still pending
    (the step's work is lost); ``after`` steps die with the write already
    durable (the step must not be redone on resume).  Each step fires at
    most once per plan instance, so a resumed run sails past the point
    that killed its predecessor.
    """

    before: frozenset = frozenset()
    after: frozenset = frozenset()
    _fired: set = field(default_factory=set, compare=False)

    @classmethod
    def at(cls, *steps: str, when: str = "after") -> "CrashPlan":
        """A plan that dies at the named steps (``when``: before/after)."""
        if when not in ("before", "after"):
            raise CheckpointError(f"unknown crash phase {when!r}")
        chosen = frozenset(steps)
        if when == "before":
            return cls(before=chosen)
        return cls(after=chosen)

    def check(self, phase: str, step: str) -> None:
        """Die if this (phase, step) is scripted and has not fired yet."""
        scripted = self.before if phase == "before" else self.after
        key = f"{phase}:{step}"
        if step in scripted and key not in self._fired:
            self._fired.add(key)
            raise InjectedCrashError(
                f"injected crash {phase} checkpoint {step!r}"
            )


def _fresh_body() -> dict[str, Any]:
    return {"runs_completed": 0, "watermarks": {}, "current": None}


def _count(telemetry: Any, name: str, amount: int = 1) -> None:
    if telemetry is not None:
        telemetry.metrics.counter(name).increment(amount)


class _Held(NamedTuple):
    """A table this store object committed: the base the next commit of
    its lineage (a source's view, the run's output) is a delta over."""

    snapshot: str
    table: Table
    #: The table's records as committed, kept apart from its mutable list.
    records: tuple[Record, ...]
    #: ``snapshot``, then its base, ..., down to the full snapshot.
    chain: tuple[str, ...]
    #: A view's row digests, in order (empty for the output).
    digests: tuple[str, ...] = ()


class CheckpointStore:
    """Durable per-run progress plus committed per-source watermarks.

    Layout under ``root``: ``journal.json`` (the single mutable file),
    ``objects/`` (content-addressed snapshots), ``quarantine/`` (corrupt
    files moved aside).  In memory the object also keeps, per source,
    the last view it committed behind a watermark
    (:meth:`RunLog.previous_view`), so a delta tick can keep that view's
    records, and the last output it committed; each is the base the
    next commit of its lineage is written as a delta over.
    """

    def __init__(
        self,
        root: str | Path,
        telemetry: Any = None,
        crash_plan: CrashPlan | None = None,
    ) -> None:
        self.root = Path(root)
        self.telemetry = telemetry
        self.crash_plan = crash_plan
        self.snapshots = SnapshotStore(self.root)
        #: Per source, the in-process table a run of this object committed
        #: behind the source's watermark, under that commit's snapshot id:
        #: one view per source, replaced on each advance.
        self._views: dict[str, _Held] = {}
        #: The output the last run of this object completed with.
        self._output: _Held | None = None

    # -- journal I/O ------------------------------------------------------

    @property
    def _journal_path(self) -> Path:
        return self.root / "journal.json"

    def _crash(self, phase: str, step: str) -> None:
        if self.crash_plan is not None:
            self.crash_plan.check(phase, step)

    def load_state(self) -> dict[str, Any]:
        """The journal body, or a fresh one (corrupt journals quarantined)."""
        path = self._journal_path
        if not path.exists():
            return _fresh_body()
        data = path.read_bytes()
        try:
            envelope = json.loads(data)
            body = envelope["body"]
            ok = (
                envelope.get("schema") == _JOURNAL_SCHEMA
                and envelope.get("version") == JOURNAL_VERSION
                and envelope.get("checksum") == content_digest(body)
            )
        except (ValueError, KeyError, TypeError):
            ok = False
            body = None
        if not ok:
            quarantined = self.snapshots.quarantine(path)
            _count(self.telemetry, "ingest.checkpoint.quarantined")
            raise CheckpointError(
                f"journal failed its integrity check; quarantined at "
                f"{quarantined} — restart ingestion from scratch or "
                f"restore the journal from backup"
            )
        return body

    def _store_state(self, body: Mapping[str, Any], step: str) -> None:
        """One atomic journal write, under its ``ingest.checkpoint`` span."""
        span = (
            self.telemetry.tracer.span("ingest.checkpoint", step=step)
            if self.telemetry is not None
            else nullcontext()
        )
        with span:
            self._crash("before", step)
            envelope = {
                "schema": _JOURNAL_SCHEMA,
                "version": JOURNAL_VERSION,
                "body": body,
                "checksum": content_digest(body),
            }
            self.root.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(self._journal_path, canonical_bytes(envelope))
            _count(self.telemetry, "ingest.commits")
            self._crash("after", step)

    # -- run lifecycle ----------------------------------------------------

    def begin_run(self, signature: str) -> "RunLog":
        """Open (or resume) a run under this store.

        An incomplete current run with a matching plan signature is
        resumed — its committed steps become the :meth:`RunLog.restored`
        set; anything else (no current run, completed, or the plan
        changed) starts fresh.
        """
        body = self.load_state()
        current = body.get("current")
        if (
            current is not None
            and not current.get("complete")
            and current.get("signature") == signature
        ):
            current["resumed"] = int(current.get("resumed", 0)) + 1
            log = RunLog(self, body, resumed=True)
            self._store_state(body, "resume")
            _count(self.telemetry, "ingest.resumes")
            return log
        if (
            current is not None
            and not current.get("complete")
            and current.get("signature") != signature
        ):
            _count(self.telemetry, "ingest.resume.signature_mismatch")
        run_id = f"run-{int(body.get('runs_completed', 0)) + 1:03d}"
        body["current"] = {
            "run_id": run_id,
            "signature": signature,
            "complete": False,
            "resumed": 0,
            "steps": [],
            "output_snapshot": None,
        }
        log = RunLog(self, body, resumed=False)
        self._store_state(body, "begin")
        return log

    def replay(self, snapshot_id: str) -> Any:
        """Decode any committed snapshot back into its live payload.

        A delta is applied over its replayed base, so a chain decodes
        from its full snapshot up; every object is digest-checked.
        """
        payload = self.snapshots.get(snapshot_id)
        if payload.get("kind") == "table-delta":
            return apply_table_delta(self.replay(payload["base"]), payload)
        return decode_payload(payload)

    def _intact(self, chain: Sequence[str]) -> bool:
        """Whether every object of a chain still hashes to its id.

        Bytes only, nothing decoded.  A bad link is quarantined and
        counted on ``ingest.restore.corrupt``.
        """
        if all(self.snapshots.verify(snapshot_id) for snapshot_id in chain):
            return True
        _count(self.telemetry, "ingest.restore.corrupt")
        return False

    def _put(
        self, payload: Any, base: _Held | None
    ) -> tuple[str, tuple[str, ...]]:
        """Store one payload; returns its snapshot id and chain.

        A table is written as a delta over ``base`` unless the base's
        chain is already :data:`MAX_CHAIN_DEPTH` deltas deep, more than
        half the rows are new, or a link of the chain fails its check.
        """
        if base is not None and isinstance(payload, Table) and (
            len(base.chain) <= MAX_CHAIN_DEPTH
        ):
            delta = encode_table_delta(payload, base.snapshot, base.records)
            if delta is not None and self._intact(base.chain):
                snapshot_id = self.snapshots.put(delta)
                _count(self.telemetry, "ingest.snapshots.delta")
                _count(
                    self.telemetry, "ingest.snapshots.records_encoded",
                    len(delta["new"]["records"]),
                )
                return snapshot_id, (snapshot_id, *base.chain)
        snapshot_id = self.snapshots.put(encode_payload(payload))
        _count(self.telemetry, "ingest.snapshots.full")
        if isinstance(payload, Table):
            _count(
                self.telemetry, "ingest.snapshots.records_encoded",
                len(payload),
            )
        return snapshot_id, (snapshot_id,)

    def watermarks(self) -> dict[str, Watermark]:
        """Every committed per-source watermark."""
        body = self.load_state()
        return {
            name: Watermark.from_dict(entry["watermark"])
            for name, entry in body.get("watermarks", {}).items()
        }

    def quarantined(self) -> list[Path]:
        """Files the store refused to trust."""
        return self.snapshots.quarantined()


class RunLog:
    """One run's committed progress, bound to its store.

    Commit points are named steps (``probe:<src>``, ``acquire:<src>``,
    ``complete``); :meth:`commit` snapshots the step's payload, records
    its metadata, and rewrites the journal atomically.  On resume,
    :meth:`restored` hands back the committed payload so the step is
    *skipped*, not redone — that is what keeps the access ledger free of
    double charges.
    """

    def __init__(
        self, store: CheckpointStore, body: dict[str, Any], resumed: bool
    ) -> None:
        self._store = store
        self._body = body
        self._current = body["current"]
        self.resumed = resumed
        self.resumed_from = (
            self._current["steps"][-1]["step"]
            if resumed and self._current["steps"]
            else None
        )
        self._committed: dict[str, dict[str, Any]] = {
            entry["step"]: entry for entry in self._current["steps"]
        }
        self._restored_steps: list[str] = sorted(self._committed)

    @property
    def run_id(self) -> str:
        """The deterministic run id (``run-<n>``)."""
        return self._current["run_id"]

    # -- reading committed state -----------------------------------------

    def restored(self, step: str) -> Any:
        """The payload a prior attempt committed for ``step``, or ``None``.

        A committed step whose snapshot fails verification (the object is
        quarantined) or predates the encoding version is treated as not
        restored: the step reruns.
        """
        payload = self._replay(self._committed.get(step))
        if payload is not None:
            _count(self._store.telemetry, "ingest.restores")
        return payload

    def watermark(self, source: str) -> Watermark | None:
        """The committed watermark for ``source``, if any."""
        entry = self._body.get("watermarks", {}).get(source)
        return None if entry is None else Watermark.from_dict(entry["watermark"])

    def previous_rows(self, source: str) -> list[dict[str, Any]] | None:
        """The raw rows of the committed view behind the watermark.

        ``None`` when there is no committed view or its snapshot fails
        verification or predates the encoding version (in which case
        delta fetching falls back to full).
        """
        table = self._replay(self._body.get("watermarks", {}).get(source))
        return None if table is None else table.to_rows()

    def _live(self, source: str) -> _Held | None:
        """The view this store object committed behind ``source``'s
        watermark, still held under the watermark's snapshot id, or
        ``None``.  Snapshot ids are content addresses that cover record
        ids, so the live table and the replayed one agree row for row.
        A new process, a resume whose acquisition was restored, or a
        watermark another store object advanced finds no live view.
        """
        entry = self._body.get("watermarks", {}).get(source)
        held = self._store._views.get(source)
        if held is None or entry is None or held.snapshot != entry.get("snapshot"):
            return None
        return held

    def previous_view(
        self, source: str
    ) -> tuple[list[dict[str, Any]], Sequence[str], Sequence[Record]] | None:
        """The committed view behind ``source``'s watermark, as a delta
        merges into it: its raw rows, their row digests and the records
        they carry (empty when the view was replayed).

        With a live view held, it is read from memory, not replayed,
        once its snapshot chain verifies by bytes.  A chain that fails
        (the bad link quarantined and counted on
        ``ingest.restore.corrupt``) drops the live view and offers no
        rows, so the delta cannot merge and the source is refetched in
        full.  Without a live view the snapshot is replayed; ``None``
        when there is none, or it is stale or corrupt.
        """
        held = self._live(source)
        if held is not None:
            if not self._store._intact(held.chain):
                del self._store._views[source]
                return [], (), ()
            rows = [record.to_dict() for record in held.records]
            digests = held.digests or [row_digest(row) for row in rows]
            return rows, digests, held.records
        rows = self.previous_rows(source)
        if rows is None:
            return None
        return rows, [row_digest(row) for row in rows], ()

    def _replay(self, entry: Mapping[str, Any] | None) -> Any:
        """The payload behind a journal entry's snapshot, or ``None``.

        An intact snapshot in another encoding version is counted on
        ``ingest.restore.stale_version``, any other failure on
        ``ingest.restore.corrupt``; either way the caller falls back.
        """
        if entry is None or entry.get("snapshot") is None:
            return None
        try:
            return self._store.replay(entry["snapshot"])
        except SnapshotVersionError:
            _count(self._store.telemetry, "ingest.restore.stale_version")
        except CheckpointError:
            _count(self._store.telemetry, "ingest.restore.corrupt")
        return None

    # -- writing ----------------------------------------------------------

    def _write(
        self,
        step: str,
        data: Mapping[str, Any] | None,
        payload: Any,
        watermark: Watermark | None = None,
        digests: Sequence[str] = (),
    ) -> str | None:
        """Record one step, then store the journal: the snapshot object
        lands first, then one atomic rewrite makes the step (with any
        watermark advance; ``complete`` closes the run) visible — a crash
        between the two leaves an unreferenced object, never a dangling
        reference.  A view behind a watermark and the run's output are
        each written as a delta over the one this store object last
        committed in their lineage.
        """
        store = self._store
        if watermark is not None:
            base = store._views.get(watermark.source)
        else:
            base = store._output if step == "complete" else None
        snapshot_id, chain = None, ()
        if payload is not None:
            snapshot_id, chain = store._put(payload, base)
        entry = {
            "step": step,
            "snapshot": snapshot_id,
            "data": dict(data) if data else {},
        }
        if step in self._committed:
            self._current["steps"] = [
                e if e["step"] != step else entry
                for e in self._current["steps"]
            ]
        else:
            self._current["steps"].append(entry)
        self._committed[step] = entry
        if watermark is not None:
            self._body.setdefault("watermarks", {})[watermark.source] = {
                "watermark": watermark.to_dict(),
                "snapshot": snapshot_id,
            }
        if step == "complete":
            self._current["complete"] = True
            self._current["output_snapshot"] = snapshot_id
            self._body["runs_completed"] = int(self._body["runs_completed"]) + 1
        store._store_state(self._body, step)
        held = None
        if isinstance(payload, Table):
            held = _Held(
                snapshot_id, payload, tuple(payload.records), chain,
                tuple(digests),
            )
        if watermark is not None:
            if held is None:
                store._views.pop(watermark.source, None)
            else:
                store._views[watermark.source] = held
        elif step == "complete":
            store._output = held
        return snapshot_id

    def commit(
        self,
        step: str,
        data: Mapping[str, Any] | None = None,
        payload: Any = None,
        watermark: Watermark | None = None,
        digests: Sequence[str] = (),
    ) -> str | None:
        """Durably commit one step; returns the payload's snapshot id.

        ``digests`` are the row digests of a view committed behind
        ``watermark``, in order: a later :meth:`previous_view` reads
        them instead of digesting the rows again.
        """
        return self._write(step, data, payload, watermark, digests)

    def complete(self, payload: Any = None) -> str | None:
        """Mark the run complete (one atomic write with the final step)."""
        snapshot_id = self._write("complete", None, payload)
        _count(self._store.telemetry, "ingest.runs_completed")
        return snapshot_id

    def export(self) -> dict[str, Any]:
        """The run's ingest summary, surfaced on ``WrangleResult``."""
        acquisitions = {
            entry["step"].split(":", 1)[1]: dict(entry["data"])
            for entry in self._current["steps"]
            if entry["step"].startswith("acquire:")
        }
        return {
            "run_id": self.run_id,
            "resumed": self.resumed,
            "resumed_from": self.resumed_from,
            "restored_steps": list(self._restored_steps),
            "steps": [entry["step"] for entry in self._current["steps"]],
            "acquisitions": acquisitions,
            "watermarks": {
                name: dict(entry["watermark"])
                for name, entry in self._body.get("watermarks", {}).items()
            },
            "output_snapshot": self._current["output_snapshot"],
            "root": str(self._store.root),
        }
