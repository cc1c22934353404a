"""The working-data store at the centre of the paper's Figure 1.

All intermediate results of the wrangling process — extracted tables,
matches, mappings, wrappers, fused entities — are stored here "for
on-demand recombination, depending on the user context and the potentially
continually evolving data context" (Section 4.2).  The store is a typed
blackboard: artifacts live under ``category/key`` addresses.  Deciding what
a change invalidates is the dataflow's job (:mod:`repro.core.dataflow`,
whose early cutoff stops where a node's output stops changing), not the
store's.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from repro.errors import CheckpointError, SnapshotVersionError
from repro.model.annotations import AnnotationStore
from repro.model.provenance import Provenance, Step
from repro.model.records import Record, Table
from repro.model.schema import Attribute, DataType, Schema
from repro.model.values import Value

__all__ = [
    "ArtifactKey",
    "SNAPSHOT_VERSION",
    "WorkingData",
    "canonical_bytes",
    "content_digest",
    "decode_table",
    "encode_table",
    "row_digest",
    "table_fingerprint",
    "tag_raw",
    "untag_raw",
]


@dataclass(frozen=True, order=True)
class ArtifactKey:
    """The address of one artifact in the working data."""

    category: str
    key: str

    def __str__(self) -> str:
        return f"{self.category}:{self.key}"


class WorkingData:
    """A blackboard of wrangling artifacts plus quality annotations.

    Categories used by the framework (others are free for applications):

    * ``table`` — extracted / mapped / fused :class:`~repro.model.records.Table`
    * ``match`` — schema correspondences
    * ``mapping`` — schema mappings
    * ``wrapper`` — induced extraction wrappers
    * ``entity`` — resolved/fused entities
    * ``report`` — quality reports
    """

    def __init__(self) -> None:
        self._entries: dict[ArtifactKey, Any] = {}
        self.annotations = AnnotationStore()

    def put(self, category: str, key: str, value: Any) -> ArtifactKey:
        """Store (or overwrite) an artifact."""
        akey = ArtifactKey(category, key)
        self._entries[akey] = value
        return akey

    def get(self, category: str, key: str, default: Any = None) -> Any:
        """The artifact at ``category:key``, or ``default``."""
        return self._entries.get(ArtifactKey(category, key), default)

    def require(self, category: str, key: str) -> Any:
        """The artifact at ``category:key``; raises ``KeyError`` if absent."""
        akey = ArtifactKey(category, key)
        if akey not in self._entries:
            raise KeyError(f"no artifact at {akey}")
        return self._entries[akey]

    def contains(self, category: str, key: str) -> bool:
        """Whether an artifact exists at ``category:key``."""
        return ArtifactKey(category, key) in self._entries

    def remove(self, category: str, key: str) -> bool:
        """Delete an artifact; returns whether it existed."""
        akey = ArtifactKey(category, key)
        if akey not in self._entries:
            return False
        del self._entries[akey]
        return True

    def keys(self, category: str | None = None) -> list[ArtifactKey]:
        """All artifact keys, optionally restricted to one category."""
        if category is None:
            return sorted(self._entries)
        return sorted(k for k in self._entries if k.category == category)

    def items(self, category: str) -> Iterator[tuple[str, Any]]:
        """Iterate ``(key, value)`` pairs within one category."""
        for akey in self.keys(category):
            yield akey.key, self._entries[akey]

    def __len__(self) -> int:
        return len(self._entries)

    def summary(self) -> dict[str, int]:
        """Artifact counts per category."""
        counts: dict[str, int] = {}
        for akey in self._entries:
            counts[akey.category] = counts.get(akey.category, 0) + 1
        return dict(sorted(counts.items()))

    def table_fingerprints(self) -> dict[str, str]:
        """Content fingerprint of every ``table`` artifact.

        The cross-run identity of the working data: two runs whose
        fingerprints match produced logically identical tables, however
        the process-local record ids happened to be minted.  The crash
        recovery suite asserts a resumed run against an uninterrupted
        one through exactly this view.
        """
        return {
            key: table_fingerprint(value)
            for key, value in self.items("table")
            if isinstance(value, Table)
        }


# -- versioned working-data snapshots ------------------------------------
#
# Tables must leave (and re-enter) the process without losing what makes
# them working data: per-cell dtype, confidence, and provenance, written
# as a provenance node table (each distinct node once).  The codec below
# is exact — ``decode_table(encode_table(t))`` reproduces every cell
# byte-for-byte — and content addressing hashes the canonical JSON form,
# so a snapshot id names the data it stores.

#: Version stamp carried by every encoded snapshot payload; bump on any
#: change to the encoding so old stores are detected, not misread.
SNAPSHOT_VERSION = 2

#: Type tag key for raw payloads JSON cannot express natively.
_TAG = "__repro__"


def tag_raw(raw: Any) -> Any:
    """A JSON-able stand-in for one raw payload (cell or cursor value)."""
    if isinstance(raw, _dt.datetime):
        return {_TAG: "datetime", "value": raw.isoformat()}
    if isinstance(raw, _dt.date):
        return {_TAG: "date", "value": raw.isoformat()}
    if isinstance(raw, tuple):
        return {_TAG: "tuple", "items": [tag_raw(item) for item in raw]}
    if isinstance(raw, dict):
        return {_TAG: "dict", "items": {
            str(key): tag_raw(value) for key, value in raw.items()
        }}
    return raw


def untag_raw(payload: Any) -> Any:
    """Invert :func:`tag_raw`."""
    if isinstance(payload, dict):
        kind = payload.get(_TAG)
        if kind == "datetime":
            return _dt.datetime.fromisoformat(payload["value"])
        if kind == "date":
            return _dt.date.fromisoformat(payload["value"])
        if kind == "tuple":
            return tuple(untag_raw(item) for item in payload["items"])
        if kind == "dict":
            return {
                key: untag_raw(value)
                for key, value in payload["items"].items()
            }
    return payload


def canonical_bytes(payload: Any) -> bytes:
    """The canonical JSON serialisation content addressing hashes.

    Sorted keys, minimal separators, ASCII-only: one byte sequence per
    logical payload, on every platform.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


def content_digest(payload: Any) -> str:
    """The sha256 content address of a JSON-able payload."""
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()


def row_digest(row: Mapping[str, Any]) -> str:
    """Content identity of one raw row (delta-merge and watermark unit).

    Keyed on the tagged raw payloads only — record ids and provenance
    are process-local and must not enter the identity.
    """
    return content_digest({str(k): tag_raw(v) for k, v in row.items()})


def encode_table(table: Table) -> dict[str, Any]:
    """The exact, versioned JSON form of a table.

    Record ids, sources, schema, and every cell annotation are preserved
    verbatim: decoding replays the table byte-for-byte.  Provenance is
    hash-consed: each structurally distinct node is written once to the
    ``provenance`` list, children before parents, and a cell names its
    node by index.  The list depends only on structure, never on which
    live nodes happen to be shared, so equal tables encode equally.
    """
    nodes: list[list[Any]] = []
    index_of: dict[tuple[str, str, tuple[int, ...]], int] = {}
    # id() is stable here: the table keeps every node alive for the call.
    seen: dict[int, int] = {}

    def intern(node: Provenance) -> int:
        index = seen.get(id(node))
        if index is None:
            inputs = tuple(map(intern, node.inputs))
            key = (node.step.value, node.ref, inputs)
            index = index_of.get(key)
            if index is None:
                index = index_of[key] = len(nodes)
                nodes.append([key[0], key[1], list(inputs)])
            seen[id(node)] = index
        return index

    # Cells are positional lists, not objects: canonical JSON sorts
    # object keys, and cell insertion order must survive the round trip.
    records = [
        [record.rid, record.source, [
            [name, tag_raw(value.raw), value.dtype.value, value.confidence,
             intern(value.provenance)]
            for name, value in record.cells.items()
        ]]
        for record in table
    ]
    return {
        "kind": "table",
        "version": SNAPSHOT_VERSION,
        "name": table.name,
        "schema": [
            [attr.name, attr.dtype.value, attr.required, attr.description]
            for attr in table.schema
        ],
        "provenance": nodes,
        "records": records,
    }


def decode_table(payload: Mapping[str, Any]) -> Table:
    """Rebuild a table from :func:`encode_table` output.

    One forward pass over the node list rebuilds the provenance, so the
    decoded cells share one node per distinct structure.
    """
    if payload.get("kind") != "table":
        raise CheckpointError(
            f"snapshot payload is not a table: kind={payload.get('kind')!r}"
        )
    if payload.get("version") != SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"table snapshot version {payload.get('version')!r} is not the "
            f"supported version {SNAPSHOT_VERSION}"
        )
    schema = Schema(tuple(
        Attribute(name, DataType(dtype), required, description)
        for name, dtype, required, description in payload["schema"]
    ))
    nodes: list[Provenance] = []
    for step, ref, inputs in payload["provenance"]:
        nodes.append(Provenance(
            Step(step), ref, tuple(nodes[index] for index in inputs)
        ))
    records = [
        Record(rid, source, {
            name: Value(
                untag_raw(raw), DataType(dtype), confidence, nodes[node]
            )
            for name, raw, dtype, confidence, node in cells
        })
        for rid, source, cells in payload["records"]
    ]
    return Table(payload["name"], schema, records)


def table_fingerprint(table: Table) -> str:
    """Cross-run content identity of a table.

    The digest of the encoded table with counter-minted ids replaced by
    first-occurrence ordinals (``#0``, ``#1``, ...): record ids, which
    come from a process-global counter, in record order, then
    ``mapping-N``/``wrapper-N`` provenance refs, minted by per-class
    counters, in node-list order.  Equal fingerprints mean logically
    identical tables, whatever process minted them.
    """
    payload = encode_table(table)
    aliases: dict[str, str] = {}

    def alias(kind: str, token: str) -> str:
        key = f"{kind}:{token}"
        if key not in aliases:
            aliases[key] = f"{kind}#{len(aliases)}"
        return aliases[key]

    payload["records"] = [
        [alias("rid", rid), source, cells]
        for rid, source, cells in payload["records"]
    ]
    minted = ("mapping-", "wrapper-")
    payload["provenance"] = [
        [step, alias("ref", ref) if ref.startswith(minted) else ref, inputs]
        for step, ref, inputs in payload["provenance"]
    ]
    return content_digest(payload)
