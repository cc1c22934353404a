"""Partitioned ER mints the same entity ids as single-node ER.

The regression this pins: merged clusters used to get positional
``entity-{number}`` ids, so the same entity changed identity the moment
execution switched between single-node and partitioned mode — silently
mis-binding every piece of feedback keyed by entity id.  Now both modes
mint content-derived stable ids through ``EntityCluster.from_records``.
"""

import pytest

from repro.feedback.store import FeedbackStore
from repro.feedback.types import RelevanceFeedback
from repro.model.records import Table
from repro.resolution.er import EntityResolver, stable_cluster_id
from repro.resolution.rules import ThresholdRule
from repro.scale.partition import partitioned_resolve


def blocking_key(record):
    return str(record.raw("name") or "").split()[0].lower()


@pytest.fixture(scope="module")
def table():
    rows = []
    for group in ("alpha", "bravo", "charlie", "delta", "echo"):
        for variant in ("point", "point", "pointe"):
            rows.append({"name": f"{group} {variant}", "grp": group})
    rows.append({"name": "foxtrot unique", "grp": "foxtrot"})
    return Table.from_rows("parity", rows)


def make_resolver():
    return EntityResolver(rule=ThresholdRule(0.9), small_table_cutoff=1000)


def id_view(result):
    return [
        (c.cluster_id, tuple(sorted(r.raw("name") for r in c.records)))
        for c in result.clusters
    ]


class TestModeParity:
    def test_partitioned_ids_equal_single_node_ids(self, table):
        single = make_resolver().resolve(table)
        partitioned = partitioned_resolve(
            table, make_resolver(), 4, blocking_key=blocking_key
        )
        # Co-locating blocking keys means no cross-partition pair is
        # lost here, so the partitions' merged clusters are the same
        # entities — and must carry byte-identical ids.
        assert id_view(partitioned) == id_view(single)

    def test_ids_are_content_derived_not_positional(self, table):
        result = partitioned_resolve(
            table, make_resolver(), 4, blocking_key=blocking_key
        )
        for cluster in result.clusters:
            assert cluster.cluster_id == stable_cluster_id(cluster.records)
            assert not cluster.cluster_id[len("entity-"):].isdigit()

    def test_partition_count_does_not_change_ids(self, table):
        views = [
            id_view(
                partitioned_resolve(
                    table, make_resolver(), n, blocking_key=blocking_key
                )
            )
            for n in (1, 2, 4, 8)
        ]
        assert views[0] == views[1] == views[2] == views[3]

    def test_feedback_binds_across_modes(self, table):
        single = make_resolver().resolve(table)
        target = next(
            c for c in single.clusters if len(c) > 1
        )
        store = FeedbackStore()
        store.add(
            RelevanceFeedback(entity=target.cluster_id, is_relevant=True)
        )
        # The same entity resolved in partitioned mode answers to the
        # id the feedback was recorded against.
        partitioned = partitioned_resolve(
            table, make_resolver(), 4, blocking_key=blocking_key
        )
        partitioned_ids = {c.cluster_id for c in partitioned.clusters}
        for item in store:
            assert item.entity in partitioned_ids

