"""``clusters_of`` against the networkx components it replaced.

The cluster builder closes matches under transitivity with a union-find;
the networkx version it replaced is kept here as the oracle.  Clusters,
their ids, their members' order and the clusters' order must all be the
same — ids are how feedback binds to entities, and the order of two
clusters that share an id is the one thing the sort does not fix.
"""

import random

import networkx as nx
import pytest

from repro.model.records import Record
from repro.resolution.er import EntityCluster, clusters_of


def networkx_clusters_of(records, edges):
    graph = nx.Graph()
    graph.add_nodes_from(records)
    graph.add_edges_from(edges)
    clusters = [
        EntityCluster.from_records(
            [records[node] for node in sorted(component)]
        )
        for component in nx.connected_components(graph)
    ]
    clusters.sort(key=lambda c: c.cluster_id)
    return clusters


def shape(clusters):
    return [
        (cluster.cluster_id, [id(record) for record in cluster.records])
        for cluster in clusters
    ]


def make_records(count, rng, keys):
    """``count`` records under ``keys``, some with identical content (so
    their singleton clusters share an id and only order tells them
    apart)."""
    labels = [f"item {rng.randrange(max(1, count // 2))}" for __ in range(count)]
    records = [
        Record.of({"name": label}, source="s", rid=f"r{i}")
        for i, label in enumerate(labels)
    ]
    order = list(range(count))
    rng.shuffle(order)
    return {keys(i): records[i] for i in order}


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("keys", [int, lambda i: f"rid-{i:03d}"])
def test_same_clusters_ids_and_order_as_networkx(seed, keys):
    rng = random.Random(seed)
    count = rng.randrange(1, 60)
    records = make_records(count, rng, keys)
    nodes = list(records)
    edges = [
        (rng.choice(nodes), rng.choice(nodes))
        for __ in range(rng.randrange(0, 2 * count))
    ]
    edges += edges[: len(edges) // 3]          # duplicate edges
    edges += [(node, node) for node in nodes[:3]]  # self-loops
    assert shape(clusters_of(records, edges)) == shape(
        networkx_clusters_of(records, edges)
    )


def test_isolated_nodes_are_singletons():
    records = {i: Record.of({"name": f"n{i}"}, rid=f"r{i}") for i in range(4)}
    clusters = clusters_of(records, [(0, 1), (1, 0), (0, 1)])
    assert sorted(len(cluster) for cluster in clusters) == [1, 1, 2]
    assert shape(clusters) == shape(
        networkx_clusters_of(records, [(0, 1), (1, 0), (0, 1)])
    )


def test_no_records():
    assert clusters_of({}, []) == []


@pytest.mark.parametrize("seed", range(6))
def test_a_previous_cluster_of_the_same_records_is_kept(seed):
    """A component of the very records (in order) of a previous cluster
    is that cluster; every other component is built afresh — and the
    result has the shape a build from nothing has."""
    rng = random.Random(seed)
    records = make_records(rng.randrange(2, 40), rng, int)
    nodes = list(records)
    edges = [(rng.choice(nodes), rng.choice(nodes)) for __ in range(len(nodes))]
    previous = clusters_of(records, edges)
    # One more edge merges two components; a copy of a record splits
    # its cluster off from what the previous clusters held.
    edges.append((nodes[0], nodes[-1]))
    copied = dict(records)
    copied[nodes[1]] = Record(
        records[nodes[1]].rid, "s", dict(records[nodes[1]].cells)
    )
    clusters = clusters_of(copied, edges, previous)
    assert shape(clusters) == shape(networkx_clusters_of(copied, edges))
    kept = {id(cluster) for cluster in previous}
    for cluster in clusters:
        same = any(
            len(old) == len(cluster)
            and all(a is b for a, b in zip(old.records, cluster.records))
            for old in previous
        )
        assert (id(cluster) in kept) == same
