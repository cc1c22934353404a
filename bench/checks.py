"""The output oracle: per-op failure rules, fingerprints, ground truth.

Every rule returns ``None`` when it holds and a one-line reason when it
does not; an op fails on its first reason.  The quality scores grade the
final result of a round against the generator's truth labels — the
``_truth`` lineage column where it survives mapping, else a workload's
own ``truth_of(record)`` lookup (rendered sites carry no lineage
column, so documents are labelled by (source, title)).
"""

from __future__ import annotations

from collections import Counter

from repro.datagen import TRUTH_COLUMN
from repro.evaluation import coverage, pair_metrics, price_accuracy
from repro.extraction.patterns import recogniser
from repro.model.values import Value
from repro.model.workingdata import row_digest, table_fingerprint

# -- per-op rules ----------------------------------------------------------


def first_failure(*reasons):
    return next((reason for reason in reasons if reason), None)


def non_empty(result):
    if len(result.table) == 0:
        return "empty wrangled table"
    return None


def incremental(recomputed: int, nodes: int):
    """A tick must recompute something, and not everything."""
    if not 0 < recomputed < nodes:
        return f"recomputed {recomputed} of {nodes} dataflow nodes"
    return None


def delta_mode(result, source: str):
    mode = result.ingest["acquisitions"].get(source, {}).get("mode")
    if mode != "delta":
        return f"acquisition of {source} was {mode!r}, not 'delta'"
    return None


def same_rows(stored, reread):
    """The stored view must equal the file, row for row, in order."""
    left = [row_digest(row) for row in stored.to_rows()]
    right = [row_digest(row) for row in reread.to_rows()]
    if left != right:
        return (
            f"stored view of {stored.name} ({len(left)} rows) differs from "
            f"its file as re-read ({len(right)} rows)"
        )
    return None


# -- ground truth ----------------------------------------------------------


def title_key(title: str) -> str:
    """A listing title as the truth lookup keys it.

    Extraction collapses runs of whitespace, and the messy template
    leaves its " — now only <price> (in stock)" blob behind the title.
    """
    return " ".join(title.split(" — ")[0].split())


def parsed_price(raw):
    if isinstance(raw, str):
        raw = recogniser("price").find(raw)
    return None if raw is None else float(raw)


def price_matches(raw, expected, tolerance: float = 0.01) -> bool:
    """The verdict a user holding the true catalogue would give a price."""
    found = parsed_price(raw)
    if found is None or expected is None:
        return False
    return abs(found - expected) <= tolerance * max(expected, 1.0)


def quality(result, world, truth_of) -> dict[str, float]:
    """``er_f1`` / ``price_accuracy`` / ``coverage`` of one final result."""
    clusters = result.resolution.clusters
    labels = {
        record.rid: truth_of(record)
        for cluster in clusters
        for record in cluster.records
    }
    table = result.table
    if not any(TRUTH_COLUMN in record.cells for record in table):
        # No lineage column to grade by: an entity's truth id is the
        # majority label of its cluster.
        majority = {}
        for cluster in clusters:
            votes = Counter(
                labels[record.rid]
                for record in cluster.records
                if labels[record.rid] is not None
            )
            if votes:
                majority[cluster.cluster_id] = votes.most_common(1)[0][0]
        table = table.map_records(
            lambda record: record.with_cell(
                TRUTH_COLUMN, Value.of(majority.get(record.rid))
            )
        )
    return {
        "er_f1": pair_metrics(result.resolution, labels).f1,
        "price_accuracy": price_accuracy(table, world),
        "coverage": coverage(table, world),
    }
