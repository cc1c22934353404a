"""Content-addressed snapshots of committed working data.

Every payload a checkpoint commits (a fetched table, an extracted
document set, the final wrangled output) is stored once under the sha256
of its canonical JSON bytes — the snapshot id *names the data*, so any
past run replays byte-for-byte from its id, and identical payloads across
runs share one object.  Reads verify the digest; a mismatch means disk
corruption, and the object is quarantined (moved aside, never trusted)
with a :class:`~repro.errors.CheckpointError` raised to the caller.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import CheckpointError, SnapshotVersionError
from repro.io import atomic_write_bytes
from repro.model.records import Table
from repro.model.workingdata import (
    SNAPSHOT_VERSION,
    canonical_bytes,
    decode_table,
    encode_table,
)
from repro.sources.base import Document

__all__ = ["SnapshotStore", "decode_payload", "encode_payload"]


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

        Idempotent: an object that already exists is left untouched, so
        re-committing after a resume never rewrites (or re-corrupts)
        history.
        """
        data = canonical_bytes(payload)
        snapshot_id = hashlib.sha256(data).hexdigest()
        path = self._object_path(snapshot_id)
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(path, data)
        return snapshot_id

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
