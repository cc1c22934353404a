"""Content-addressed snapshots of committed working data.

Every payload a checkpoint commits (a fetched table, an extracted
document set, the final wrangled output) is stored once under the sha256
of its canonical JSON bytes — the snapshot id *names the data*, so any
past run replays byte-for-byte from its id, and identical payloads across
runs share one object.  Reads verify the digest; a mismatch means disk
corruption, and the object is quarantined (moved aside, never trusted)
with a :class:`~repro.errors.CheckpointError` raised to the caller.

A table may also be stored as a *delta* over a base snapshot
(:func:`encode_table_delta`): the base's id, an ``order`` vector that
names each row as a base position or a new record, and the new records
as an ordinary :func:`~repro.model.workingdata.encode_table` payload.
A snapshot id therefore names a payload, not a logical table: one table
may be stored under a full id and under a delta id.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import CheckpointError, SnapshotVersionError
from repro.io import atomic_write_bytes
from repro.model.records import Record, Table
from repro.model.workingdata import (
    SNAPSHOT_VERSION,
    canonical_bytes,
    decode_table,
    encode_table,
)
from repro.sources.base import Document

__all__ = [
    "SnapshotStore",
    "apply_table_delta",
    "decode_payload",
    "encode_payload",
    "encode_table_delta",
]


def _encode_documents(documents: Sequence[Document]) -> dict[str, Any]:
    return {
        "kind": "documents",
        "version": SNAPSHOT_VERSION,
        "documents": [
            {"url": doc.url, "html": doc.html, "source": doc.source}
            for doc in documents
        ],
    }


def _decode_documents(payload: Mapping[str, Any]) -> list[Document]:
    if payload.get("version") != SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"document snapshot version {payload.get('version')!r} is not "
            f"the supported version {SNAPSHOT_VERSION}"
        )
    return [
        Document(entry["url"], entry["html"], entry["source"])
        for entry in payload["documents"]
    ]


def encode_payload(value: Any) -> dict[str, Any]:
    """JSON-encode any payload a checkpoint may commit."""
    if isinstance(value, Table):
        return encode_table(value)
    if isinstance(value, Sequence) and all(
        isinstance(item, Document) for item in value
    ):
        return _encode_documents(value)
    raise CheckpointError(
        f"cannot snapshot payload of type {type(value).__name__}"
    )


def decode_payload(payload: Mapping[str, Any]) -> Any:
    """Invert :func:`encode_payload`, dispatching on the ``kind`` stamp."""
    kind = payload.get("kind")
    if kind == "table":
        return decode_table(payload)
    if kind == "documents":
        return _decode_documents(payload)
    raise CheckpointError(f"unknown snapshot payload kind {kind!r}")


def encode_table_delta(
    table: Table, base_id: str, base: Sequence[Record]
) -> dict[str, Any] | None:
    """``table`` as a delta over the snapshot ``base_id``, or ``None``.

    ``base`` holds the records the base snapshot encodes, in order; a
    record of ``table`` that *is* one of them (object identity: records
    are frozen, so the same object is the same row) is written as its
    base position, any other as ``~j``, the ``j``-th new record.  ``None``
    when more than half the rows are new: a full snapshot is then about
    as small and starts a fresh chain.
    """
    position = {id(record): index for index, record in enumerate(base)}
    order: list[int] = []
    new: list[Record] = []
    for record in table:
        index = position.get(id(record))
        if index is None:
            index = ~len(new)
            new.append(record)
        order.append(index)
    if 2 * len(new) > len(order):
        return None
    return {
        "kind": "table-delta",
        "version": SNAPSHOT_VERSION,
        "base": base_id,
        "order": order,
        "new": encode_table(Table(table.name, table.schema, new)),
    }


def apply_table_delta(base: Table, payload: Mapping[str, Any]) -> Table:
    """Invert :func:`encode_table_delta` over the decoded base table."""
    if payload.get("version") != SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"table delta version {payload.get('version')!r} is not the "
            f"supported version {SNAPSHOT_VERSION}"
        )
    new = decode_table(payload["new"])
    records = [
        base.records[index] if index >= 0 else new.records[~index]
        for index in payload["order"]
    ]
    return Table(new.name, new.schema, records)


class SnapshotStore:
    """A content-addressed object store under one directory.

    Objects live at ``objects/<digest[:2]>/<digest>.json``; corrupt
    objects are moved to ``quarantine/`` so a later run cannot re-read
    them and the operator can inspect what rotted.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    @property
    def _objects(self) -> Path:
        return self.root / "objects"

    @property
    def _quarantine(self) -> Path:
        return self.root / "quarantine"

    def _object_path(self, snapshot_id: str) -> Path:
        return self._objects / snapshot_id[:2] / f"{snapshot_id}.json"

    def put(self, payload: Mapping[str, Any]) -> str:
        """Store a JSON payload; returns its content address.

        Idempotent: an intact object that already exists is left
        untouched, so re-committing after a resume never rewrites
        history.  An existing object whose bytes no longer hash to its
        id is quarantined and written afresh, so a commit never names a
        rotten object.
        """
        data = canonical_bytes(payload)
        snapshot_id = hashlib.sha256(data).hexdigest()
        if not self.verify(snapshot_id):
            path = self._object_path(snapshot_id)
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(path, data)
        return snapshot_id

    def verify(self, snapshot_id: str) -> bool:
        """Whether the object is present and hashes to its id.

        Bytes only: nothing is parsed.  A mismatch quarantines the object.
        """
        path = self._object_path(snapshot_id)
        if not path.exists():
            return False
        if hashlib.sha256(path.read_bytes()).hexdigest() == snapshot_id:
            return True
        self.quarantine(path)
        return False

    def get(self, snapshot_id: str) -> dict[str, Any]:
        """Load and verify the payload stored under ``snapshot_id``.

        The bytes are re-hashed before parsing; a digest mismatch
        quarantines the object and raises :class:`CheckpointError`.
        """
        path = self._object_path(snapshot_id)
        if not path.exists():
            raise CheckpointError(f"no snapshot object {snapshot_id}")
        data = path.read_bytes()
        actual = hashlib.sha256(data).hexdigest()
        if actual != snapshot_id:
            quarantined = self.quarantine(path)
            raise CheckpointError(
                f"snapshot {snapshot_id} failed its integrity check "
                f"(stored bytes hash to {actual}); quarantined at "
                f"{quarantined}"
            )
        return json.loads(data.decode("ascii"))

    def quarantine(self, path: Path) -> Path:
        """Move a corrupt file aside; returns its new resting place."""
        self._quarantine.mkdir(parents=True, exist_ok=True)
        target = self._quarantine / path.name
        suffix = 0
        while target.exists():
            suffix += 1
            target = self._quarantine / f"{path.name}.{suffix}"
        os.replace(path, target)
        return target

    def quarantined(self) -> list[Path]:
        """Every quarantined file, sorted by name."""
        if not self._quarantine.exists():
            return []
        return sorted(p for p in self._quarantine.iterdir() if p.is_file())

    def __len__(self) -> int:
        if not self._objects.exists():
            return 0
        return sum(1 for _ in self._objects.glob("*/*.json"))
