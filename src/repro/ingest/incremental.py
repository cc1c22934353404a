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
A merged view keeps the records of the view the same store object
committed before (:meth:`~repro.ingest.checkpoint.RunLog.previous_view`),
read from memory once its snapshot chain verifies, not replayed, so
the rows a tick did not change keep their objects and record ids and
only the new rows are typed: every layer downstream that carries work
by record identity then reuses it, the delta snapshot the commit
writes among them.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.ingest.checkpoint import RunLog, _count
from repro.model.records import Record, Table
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
    digests = [row_digest(row) for row in previous_rows]
    merged = _merge(previous_rows, digests, (), batch)
    return None if merged is None else merged[0]


def _merge(
    previous_rows: Sequence[dict[str, Any]],
    digests: Sequence[str],
    live: Sequence[Record],
    batch: DeltaBatch,
) -> tuple[list[dict[str, Any]], list[Record | None]] | None:
    """:func:`merge_delta`'s rows, each with the record it carries.

    ``digests`` are the row digests of ``previous_rows``.  ``live`` is
    empty or holds the records ``previous_rows`` were read from, in
    order.  A row of the current view takes the next unused live record
    of its digest, so the digests form a multiset: two identical rows
    stay two records.  A row no live record is left for carries ``None``
    and is built afresh.
    """
    pool = dict(zip(digests, previous_rows))
    pool.update((row_digest(row), row) for row in batch.rows)
    unused: dict[str, list[Record]] = {}
    for digest, record in zip(reversed(digests), reversed(live)):
        unused.setdefault(digest, []).append(record)
    merged, carried = [], []
    for digest in batch.order:
        row = pool.get(digest)
        if row is None:
            return None
        merged.append(dict(row))
        kept = unused.get(digest)
        carried.append(kept.pop() if kept else None)
    return merged, carried


def _direct(name: str, op: str, fn: Callable[[], Any]) -> Any:
    return fn()


def acquire_durable(
    source: DataSource,
    log: RunLog,
    telemetry: Any = None,
    access: Callable[[str, str, Callable[[], Any]], Any] = _direct,
) -> Any:
    """Fetch one source under the run log and commit the result.

    Document sources are always full fetches.  Structured sources make
    one ``fetch_delta`` call: with the committed watermark when it, its
    view, and a declared cursor all line up, with ``None`` (a full
    fetch) otherwise.  An unmergeable delta (edit behind the cursor, a
    live view whose snapshot chain failed its check) falls back to a
    full refetch — counted on ``ingest.delta.fallbacks`` — so
    correctness never depends on the cursor discipline holding.  The
    committed view comes from :meth:`~repro.ingest.checkpoint.RunLog.previous_view`:
    the live view with its row digests when this store object holds
    it, the replayed snapshot otherwise; the rows the live view held
    keep its records, counted on ``ingest.delta.records_reused``.

    Each source call goes through ``access(name, op, fn)``: the
    wrangler's :meth:`~repro.resilience.AccessGuard.call` under
    ``Wrangler.resilience``, a plain ``fn()`` otherwise.
    """
    step = f"acquire:{source.name}"
    if isinstance(source, DocumentSource):
        documents = access(source.name, "fetch", source.fetch)
        log.commit(
            step,
            data={"mode": "full", "rows_fetched": len(documents),
                  "fraction": 1.0},
            payload=documents,
        )
        _count(telemetry, "ingest.full_fetches")
        return documents

    cursor = source.delta_cursor()
    previous = log.previous_view(source.name) if cursor is not None else None
    watermark = log.watermark(source.name) if previous is not None else None
    batch = access(
        source.name, "fetch_delta", lambda: source.fetch_delta(watermark)
    )
    mode, table = batch.mode, batch.table
    if watermark is None:
        _count(telemetry, "ingest.full_fetches")
    else:
        merged = _merge(*previous, batch)
        if merged is None:
            _count(telemetry, "ingest.delta.fallbacks")
            batch = access(
                source.name, "fetch_delta", lambda: source.fetch_delta(None)
            )
            mode, table = "fallback-full", batch.table
        else:
            rows, carried = merged
            table = Table.from_rows(
                source.name, rows, source=source.name, carried=carried
            )
            _count(telemetry, "ingest.delta.fetches")
            _count(telemetry, "ingest.delta.rows", len(batch.rows))
            _count(
                telemetry, "ingest.delta.records_reused",
                sum(record is not None for record in carried),
            )
    info = {
        "mode": mode,
        "rows_fetched": len(batch.rows),
        "fraction": batch.fraction,
    }
    log.commit(
        step, data=info, payload=table, watermark=batch.watermark,
        digests=batch.order,
    )
    return table
