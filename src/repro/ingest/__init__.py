"""Crash-safe incremental ingestion: the durable edge of the pipeline.

ROADMAP item 3 made concrete: acquisition becomes incremental and
recoverable.  :mod:`repro.ingest.checkpoint` journals exactly what a
resume reads — each ``probe:`` / ``acquire:`` payload with its watermark
advance, then ``complete`` — durably (atomic write-temp-then-rename,
versioned JSON, corruption-detecting checksums) so an interrupted run
resumes instead of restarting; :mod:`repro.ingest.snapshots` stores
every committed payload content-addressed, so any past run replays
byte-for-byte from its snapshot id; :mod:`repro.ingest.incremental`
merges a delta fetch into the committed view.  ``docs/INCREMENTAL.md``
is the contract.

The cursor types (``Watermark``, ``DeltaBatch``, …) are re-exported from
:mod:`repro.sources.cursor`; nothing under ``sources`` imports ``ingest``.
"""

from repro.ingest.checkpoint import CheckpointStore, CrashPlan, RunLog
from repro.ingest.incremental import acquire_durable, merge_delta
from repro.ingest.snapshots import SnapshotStore, decode_payload, encode_payload
from repro.sources.cursor import (
    DELTA_COST_FLOOR,
    DeltaBatch,
    Watermark,
    cursor_after,
    watermark_for,
)

__all__ = [
    "CheckpointStore",
    "CrashPlan",
    "DELTA_COST_FLOOR",
    "DeltaBatch",
    "RunLog",
    "SnapshotStore",
    "Watermark",
    "acquire_durable",
    "cursor_after",
    "decode_payload",
    "encode_payload",
    "merge_delta",
    "watermark_for",
]
