"""Partitioned (map/reduce-style) execution of wrangling tasks.

Section 4.3: "ETL vendors have responded to this challenge by compiling
ETL workflows into big data platforms, such as map/reduce.  In the
architecture of Figure 1, it will be necessary for extraction, integration
and data querying tasks to be able to be executed using such platforms."

This module provides the execution shape as plain deterministic Python:
stable hash partitioning, and partitioned entity resolution on top of it
(partition-local ER with a merge step, the standard blocking-respecting
parallelisation) that experiment E7 measures against single-node ER.
"""

from __future__ import annotations

import zlib
from typing import Callable

from repro.errors import WranglingError
from repro.model.records import Record, Table
from repro.resolution.er import EntityResolver, ResolutionResult, clusters_of

__all__ = ["hash_partition", "partitioned_resolve", "stable_digest"]

def stable_digest(key: object) -> int:
    """A process-stable 32-bit digest of ``key``'s string form.

    ``hash()`` is salted per process for str, so partition assignment
    would differ from one run to the next; CRC-32 over the
    UTF-8 encoding is deterministic everywhere and mixes every byte
    (the previous hand-rolled ``digest*131 + ord(char)`` loop let the
    last character dominate the low bits — pathological skew whenever
    ``n_partitions`` divided the multiplier's cycle).
    """
    return zlib.crc32(str(key).encode("utf-8"))


def hash_partition(
    table: Table, n_partitions: int, key: Callable[[Record], object] | None = None
) -> list[Table]:
    """Split ``table`` into ``n_partitions`` by a stable hash of ``key``.

    The default key is the record id; ER callers pass a blocking key so
    that likely duplicates land in the same partition.  Assignment uses
    :func:`stable_digest`, so the same record lands in the same
    partition in every process.
    """
    if n_partitions <= 0:
        raise WranglingError("n_partitions must be positive")
    key = key or (lambda record: record.rid)
    partitions: list[list[Record]] = [[] for __ in range(n_partitions)]
    for record in table.records:
        partitions[stable_digest(key(record)) % n_partitions].append(record)
    return [
        Table(f"{table.name}/part-{index}", table.schema, records)
        for index, records in enumerate(partitions)
    ]


def partitioned_resolve(
    table: Table,
    resolver: EntityResolver,
    n_partitions: int,
    blocking_key: Callable[[Record], object],
) -> ResolutionResult:
    """Entity resolution as partition-local ER plus a union of results.

    Records are partitioned by ``blocking_key`` (e.g. the first title
    token), so duplicates co-locate; each partition is resolved
    independently and the clusters are merged.  Pairs split across
    partitions are missed — that recall loss versus single-node ER is
    precisely what experiment E7 measures.

    Merged clusters carry the same content-derived
    :func:`~repro.resolution.er.stable_cluster_id` single-node ER mints
    (they used to get positional ``entity-{number}`` ids, which silently
    mis-bound feedback the moment execution mode changed): both modes
    build their clusters with :func:`~repro.resolution.er.clusters_of`.
    """
    partitions = hash_partition(table, n_partitions, blocking_key)
    populated = [partition for partition in partitions if len(partition)]
    results = [resolver.resolve(partition) for partition in populated]
    matched: dict[tuple[str, str], float] = {}
    records: dict[str, Record] = {}
    edges: list[tuple[str, str]] = []
    for result in results:
        matched.update(result.matched_pairs)
        for cluster in result.clusters:
            rids = [record.rid for record in cluster.records]
            records.update(zip(rids, cluster.records))
            edges.extend(zip(rids, rids[1:]))
    return ResolutionResult(
        clusters_of(records, edges),
        matched_pairs=matched,
        compared=sum(result.compared for result in results),
        candidate_pairs=sum(result.candidate_pairs for result in results),
    )
