"""Delta-merge and durable acquisition: where cursors meet checkpoints.

:func:`merge_delta` rebuilds a source's full current view from the
previously committed rows plus a :class:`~repro.sources.cursor.DeltaBatch`
— the batch's ``order`` (row digests of the current view, in source
order) is the authority, so edits-behind-the-cursor are *detected* (a
digest nobody can supply) instead of silently missed.

:func:`acquire_durable` is the wrangler's acquisition hook when a
:class:`~repro.ingest.checkpoint.CheckpointStore` is attached: fetch
delta when the committed watermark allows, full otherwise, and commit
the result (payload snapshot + watermark advance) in one checkpoint.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.ingest.checkpoint import RunLog, _count
from repro.model.records import Table
from repro.model.workingdata import row_digest
from repro.sources.base import DataSource, DocumentSource
from repro.sources.cursor import DeltaBatch

__all__ = ["acquire_durable", "merge_delta"]


def merge_delta(
    previous_rows: Sequence[dict[str, Any]], batch: DeltaBatch
) -> list[dict[str, Any]] | None:
    """Reassemble the source's full current view, or ``None`` if impossible.

    Rows are pooled by content digest from the previous committed view
    and the delta; the batch's ``order`` then dictates exactly which rows
    the current view holds and in what sequence.  Deletions and
    reorderings fall out naturally; a digest neither pool can supply
    means a row changed behind the cursor, and the caller must fall back
    to a full refetch.
    """
    pool = {row_digest(row): row for row in (*previous_rows, *batch.rows)}
    merged = []
    for digest in batch.order:
        row = pool.get(digest)
        if row is None:
            return None
        merged.append(dict(row))
    return merged


def acquire_durable(
    source: DataSource, log: RunLog, telemetry: Any = None
) -> Any:
    """Fetch one source under the run log and commit the result.

    Document sources are always full fetches.  Structured sources make
    one ``fetch_delta`` call: with the committed watermark when it, its
    snapshot, and a declared cursor all line up, with ``None`` (a full
    fetch) otherwise.  An unmergeable delta (edit behind the cursor,
    corrupt previous snapshot) falls back to a full refetch — counted
    on ``ingest.delta.fallbacks`` — so correctness never depends on the
    cursor discipline holding.
    """
    step = f"acquire:{source.name}"
    if isinstance(source, DocumentSource):
        documents = source.fetch()
        log.commit(
            step,
            data={"mode": "full", "rows_fetched": len(documents),
                  "fraction": 1.0},
            payload=documents,
        )
        _count(telemetry, "ingest.full_fetches")
        return documents

    cursor = source.delta_cursor()
    previous = log.previous_rows(source.name) if cursor is not None else None
    watermark = log.watermark(source.name) if previous is not None else None
    batch = source.fetch_delta(watermark)
    mode, table = batch.mode, batch.table
    if watermark is None:
        _count(telemetry, "ingest.full_fetches")
    else:
        merged = merge_delta(previous, batch)
        if merged is None:
            _count(telemetry, "ingest.delta.fallbacks")
            batch = source.fetch_delta(None)
            mode, table = "fallback-full", batch.table
        else:
            table = Table.from_rows(source.name, merged, source=source.name)
            _count(telemetry, "ingest.delta.fetches")
            _count(telemetry, "ingest.delta.rows", len(batch.rows))
    info = {
        "mode": mode,
        "rows_fetched": len(batch.rows),
        "fraction": batch.fraction,
    }
    log.commit(step, data=info, payload=table, watermark=batch.watermark)
    return table
