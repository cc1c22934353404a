"""The table snapshot codec against the tree-form codec it replaced.

Snapshots write provenance as a node table: each structurally distinct
node once, children before parents, and every cell naming its node by
index.  The tree form that wrote each cell's provenance out in full is
kept here as the oracle (``tree_encoding`` / ``tree_fingerprint``, the
previous ``encode_table`` and ``table_fingerprint``): fingerprints must
agree with it on which tables are equal, and the node table must stay a
fraction of its size.  Tables are drawn over random provenance DAGs with
random sharing, so the same structure arrives both as one shared node
and as unshared copies.
"""

import datetime
import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.core.wrangler import Wrangler
from repro.datagen import generate_world
from repro.datagen.ontologies import product_ontology
from repro.datagen.products import TARGET_SCHEMA
from repro.ingest.checkpoint import CheckpointStore
from repro.model.provenance import Provenance, Step
from repro.model.records import Record, Table
from repro.model.schema import Attribute, DataType, Schema
from repro.model.values import Value
from repro.model.workingdata import (
    SNAPSHOT_VERSION,
    canonical_bytes,
    content_digest,
    decode_table,
    encode_table,
    table_fingerprint,
    tag_raw,
)
from repro.sources.memory import MemorySource

QUICKSTART = Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"


# -- the oracle: the tree-form codec -------------------------------------


def _tree_provenance(node):
    return {
        "step": node.step.value,
        "ref": node.ref,
        "inputs": [_tree_provenance(child) for child in node.inputs],
    }


def tree_encoding(table):
    """The version-1 payload: every cell carries its provenance tree."""
    return {
        "kind": "table",
        "version": 1,
        "name": table.name,
        "schema": [
            {
                "name": attr.name,
                "dtype": attr.dtype.value,
                "required": attr.required,
                "description": attr.description,
            }
            for attr in table.schema
        ],
        "records": [
            {
                "rid": record.rid,
                "source": record.source,
                "cells": [
                    [name, {
                        "raw": tag_raw(value.raw),
                        "dtype": value.dtype.value,
                        "confidence": value.confidence,
                        "provenance": _tree_provenance(value.provenance),
                    }]
                    for name, value in record.cells.items()
                ],
            }
            for record in table
        ],
    }


def _aliased(payload, aliases):
    def alias(kind, token):
        key = f"{kind}:{token}"
        if key not in aliases:
            aliases[key] = f"{kind}#{len(aliases)}"
        return aliases[key]

    if isinstance(payload, dict):
        out = {}
        for key, value in payload.items():
            if key == "rid":
                out[key] = alias("rid", value)
            elif key == "ref" and isinstance(value, str) and (
                value.startswith("mapping-") or value.startswith("wrapper-")
            ):
                out[key] = alias("ref", value)
            else:
                out[key] = _aliased(value, aliases)
        return out
    if isinstance(payload, list):
        return [_aliased(item, aliases) for item in payload]
    return payload


def tree_fingerprint(table):
    return content_digest(_aliased(tree_encoding(table), {}))


# -- tables over random provenance DAGs ----------------------------------

REFS = (
    "retailer-a", "retailer-b", "er", "mapping-1", "mapping-2", "mapping-10",
    "wrapper-1", "wrapper-3",
)
NAMES = ("price", "product", "brand", "updated")
RAWS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.dates(),
    st.datetimes(),
    st.tuples(st.integers(), st.text(max_size=3)),
    st.dictionaries(st.sampled_from(("k", "v")), st.integers(), max_size=2),
)


def unshared(node):
    """A structurally equal copy sharing no node with anything."""
    return Provenance(
        node.step, node.ref, tuple(unshared(child) for child in node.inputs)
    )


def renamed(node, refs, memo):
    """``node`` with its refs mapped through ``refs``, sharing kept."""
    if id(node) not in memo:
        memo[id(node)] = Provenance(
            node.step,
            refs.get(node.ref, node.ref),
            tuple(renamed(child, refs, memo) for child in node.inputs),
        )
    return memo[id(node)]


@st.composite
def provenance_pools(draw):
    """Nodes whose inputs are earlier nodes (shared subtrees), some of
    them unshared structural copies of earlier nodes."""
    pool = []
    for __ in range(draw(st.integers(1, 8))):
        if pool and draw(st.integers(0, 3)) == 0:
            pool.append(unshared(draw(st.sampled_from(pool))))
            continue
        inputs = draw(st.lists(st.sampled_from(pool), max_size=2)) if pool else []
        pool.append(Provenance(
            draw(st.sampled_from(list(Step))),
            draw(st.sampled_from(REFS)),
            tuple(inputs),
        ))
    return pool


@st.composite
def tables(draw):
    pool = draw(provenance_pools())
    schema = Schema(tuple(
        Attribute(name, draw(st.sampled_from(list(DataType))),
                  draw(st.booleans()), draw(st.text(max_size=4)))
        for name in draw(st.permutations(NAMES))[: draw(st.integers(0, 4))]
    ))
    records = []
    for rid in draw(st.lists(st.integers(0, 99), max_size=6, unique=True)):
        names = draw(st.permutations(NAMES))[: draw(st.integers(0, 4))]
        cells = {
            name: Value(
                draw(RAWS),
                draw(st.sampled_from(list(DataType))),
                draw(st.floats(0.0, 1.0)),
                draw(st.sampled_from(pool)),
            )
            for name in names
        }
        source = draw(st.sampled_from(("retailer-a", "retailer-b")))
        records.append(Record(f"r{rid}", source, cells))
    return Table(draw(st.sampled_from(("fused", "raw"))), schema, records)


def cells_of(table):
    return [
        (record.rid, record.source, [
            (name, value.raw, type(value.raw), value.dtype,
             value.confidence, value.provenance)
            for name, value in record.cells.items()
        ])
        for record in table
    ]


def stored(payload):
    """The payload as a snapshot object holds it: canonical bytes, parsed."""
    return json.loads(canonical_bytes(payload))


def distinct_objects(table):
    return {
        id(node): node
        for record in table
        for value in record.cells.values()
        for node in value.provenance.walk()
    }


class TestCodecProperties:
    @settings(max_examples=150, deadline=None)
    @given(tables())
    def test_round_trip_is_exact(self, table):
        clone = decode_table(stored(encode_table(table)))
        assert clone.name == table.name
        assert clone.schema == table.schema
        assert cells_of(clone) == cells_of(table)

    @settings(max_examples=150, deadline=None)
    @given(tables())
    def test_sharing_does_not_change_the_bytes(self, table):
        copy = Table(table.name, table.schema, [
            Record(record.rid, record.source, {
                name: Value(value.raw, value.dtype, value.confidence,
                            unshared(value.provenance))
                for name, value in record.cells.items()
            })
            for record in table
        ])
        assert canonical_bytes(encode_table(copy)) == canonical_bytes(
            encode_table(table)
        )

    @settings(max_examples=150, deadline=None)
    @given(tables())
    def test_each_node_is_written_once_children_first(self, table):
        nodes = encode_table(table)["provenance"]
        keys = [(step, ref, tuple(inputs)) for step, ref, inputs in nodes]
        assert len(set(keys)) == len(keys)
        assert all(
            index < position
            for position, (__, __, inputs) in enumerate(nodes)
            for index in inputs
        )
        assert len(nodes) == len(set(distinct_objects(table).values()))

    @settings(max_examples=150, deadline=None)
    @given(tables())
    def test_decoded_cells_share_one_object_per_node(self, table):
        payload = stored(encode_table(table))
        clone = decode_table(payload)
        assert len(distinct_objects(clone)) == len(payload["provenance"])

    @settings(max_examples=200, deadline=None)
    @given(tables(), st.data())
    def test_fingerprint_equality_agrees_with_the_tree_oracle(
        self, table, data
    ):
        """Renumber rids and rename ``mapping-N``/``wrapper-N`` refs,
        bijectively or not, sometimes touching a plain ref or a
        confidence too: the fingerprints are equal exactly when the
        oracle's are."""
        minted = [ref for ref in REFS if ref.startswith(("mapping-", "wrapper-"))]
        bijective = data.draw(st.booleans())
        if bijective:
            rids = data.draw(st.permutations(range(100)))
            refs = dict(zip(minted, data.draw(st.permutations(
                ["mapping-7", "mapping-8", "wrapper-8", "mapping-9",
                 "wrapper-9"]
            ))))
        else:
            rids = data.draw(st.lists(st.integers(0, 3), min_size=100,
                                      max_size=100))
            refs = {
                ref: data.draw(st.sampled_from(("mapping-7", "wrapper-7")))
                for ref in minted
            }
        plain = data.draw(st.sampled_from([{}, {"er": "retailer-a"}]))
        refs.update(plain)
        nudge = data.draw(st.booleans()) and len(table) > 0 and bool(
            table[0].cells
        )
        memo = {}
        records = []
        for index, record in enumerate(table):
            cells = {
                name: Value(value.raw, value.dtype, value.confidence,
                            renamed(value.provenance, refs, memo))
                for name, value in record.cells.items()
            }
            if nudge and index == 0:
                name, value = next(iter(cells.items()))
                cells[name] = value.with_confidence(
                    0.5 if value.confidence != 0.5 else 0.25
                )
            rid = f"q{rids[int(record.rid[1:])]}"
            records.append(Record(rid, record.source, cells))
        other = Table(table.name, table.schema, records)
        same = table_fingerprint(table) == table_fingerprint(other)
        assert same == (tree_fingerprint(table) == tree_fingerprint(other))
        if bijective and not plain and not nudge:
            assert same


# -- the quickstart world's output ---------------------------------------


@pytest.fixture(scope="module")
def quickstart_table():
    spec = importlib.util.spec_from_file_location("quickstart", QUICKSTART)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_wrangler().run().table


def test_quickstart_output_round_trips_exactly(quickstart_table):
    clone = decode_table(stored(encode_table(quickstart_table)))
    assert clone.schema == quickstart_table.schema
    assert cells_of(clone) == cells_of(quickstart_table)
    assert table_fingerprint(clone) == table_fingerprint(quickstart_table)


def test_quickstart_output_writes_each_node_once(quickstart_table):
    """A return to per-cell provenance trees fails here, untimed: the
    node table holds one entry per distinct node, and the snapshot is at
    most a third of the tree form's bytes."""
    payload = encode_table(quickstart_table)
    distinct = set(distinct_objects(quickstart_table).values())
    assert len(payload["provenance"]) == len(distinct)
    assert 3 * len(canonical_bytes(payload)) <= len(
        canonical_bytes(tree_encoding(quickstart_table))
    )


# -- a store written in the previous encoding ----------------------------


def make_wrangler(world, store):
    user = UserContext.precision_first("analyst", TARGET_SCHEMA, budget=50.0)
    data = DataContext("products").with_ontology(product_ontology())
    data.add_master("catalog", world.ground_truth)
    wrangler = Wrangler(
        user, data, master_key="catalog", join_attribute="product",
        today=datetime.date(2016, 3, 15),
    )
    for name in sorted(world.source_rows):
        rows = [dict(row, seq=seq) for seq, row in enumerate(world.source_rows[name])]
        wrangler.add_source(MemorySource(
            name, rows, cost_per_access=world.specs[name].cost, cursor="seq"
        ))
    return wrangler.checkpointing(store)


def test_old_version_snapshot_is_stale_not_corrupt(tmp_path):
    """An intact version-1 view behind a watermark is counted as stale,
    left in place, and its source refetched in full; the output is the
    one a fresh store gives."""
    assert SNAPSHOT_VERSION != 1
    world = generate_world(n_products=10, n_sources=2, seed=77)
    fresh = make_wrangler(world, CheckpointStore(tmp_path / "fresh")).run()

    root = tmp_path / "old"
    store = CheckpointStore(root)
    make_wrangler(world, store).run()
    body = store.load_state()
    name = sorted(body["watermarks"])[0]
    entry = body["watermarks"][name]
    entry["snapshot"] = store.snapshots.put(
        tree_encoding(store.replay(entry["snapshot"]))
    )
    store._store_state(body, "seed")

    wrangler = make_wrangler(world, CheckpointStore(root))
    result = wrangler.run()
    counter = wrangler.telemetry.metrics.counter
    assert result.ingest["acquisitions"][name]["mode"] == "full"
    assert counter("ingest.restore.stale_version").value == 1
    assert counter("ingest.restore.corrupt").value == 0
    assert CheckpointStore(root).quarantined() == []
    assert table_fingerprint(result.table) == table_fingerprint(fresh.table)
