"""A 16-tick feedback session, pinned end to end.

The literals below were recorded at the commit *before* the ER threshold
refit, value-verdict re-fusion, replan-profit check and quorum/deadline
policy moved out of ``core/wrangler.py`` behind their layers: per tick
the matched pairs with their confidences (they move whenever the fitted
threshold does), the nodes the feedback invalidated and the running
recompute count; at the end the wrangled table's fingerprint.  A move
that changes any decision changes a literal.

The session is the quickstart world driven the way
``bench/workloads.py::FeedbackTicks`` drives it: one item per tick,
cycling value / duplicate / match / relevance, seeded picks, verdicts
from the generator's ground truth.  Odd value cycles reject the cell
outright (alternating with and without a correction) so both
``Step.FEEDBACK`` refs occur.  Four pick seeds, chosen at the recording
commit for what they reach (see ``EXPECTED``).
"""

import hashlib
import importlib.util
import random
from pathlib import Path

import pytest

from repro.datagen import TRUTH_COLUMN, generate_world
from repro.feedback import (
    DuplicateFeedback,
    MatchFeedback,
    RelevanceFeedback,
    ValueFeedback,
)
from repro.model.provenance import Step
from repro.model.workingdata import table_fingerprint

QUICKSTART = Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"
KINDS = ("value", "duplicate", "match", "relevance")
MATCH_ATTRIBUTES = ("price", "product", "brand", "updated")
TICKS = 16

#: Per pick seed: (matched-pairs digest, invalidated nodes,
#: ``recompute_count()``) per tick, the final table fingerprint, and the
#: ``Step.FEEDBACK`` refs on the final table.  Between them the seeds take
#: every arm of the threshold ladder (0: all-negative, 7: mixed labels,
#: 29: all-positive), both refs, and a replan that pays (9).
EXPECTED = {0: {'ticks': [('0b96518e282f', ['fuse', 'select'], 42),
               ('0b96518e282f', ['resolve'], 45),
               ('0b96518e282f', ['match:retailer-02'], 54),
               ('0b96518e282f', ['select'], 59),
               ('0b96518e282f', ['fuse', 'select'], 64),
               ('0b96518e282f', ['resolve'], 67),
               ('d89c091c9078', ['match:retailer-00'], 76),
               ('d89c091c9078', ['select'], 81),
               ('8a1ffbd0e80b', ['fuse', 'select'], 86),
               ('8a1ffbd0e80b', ['resolve'], 89),
               ('8a1ffbd0e80b', ['match:retailer-04'], 98),
               ('8a1ffbd0e80b', ['select'], 103),
               ('c47202f6a3bf', ['fuse', 'select'], 108),
               ('006bce0cf912', ['resolve'], 111),
               ('04497ff1feb6', ['match:retailer-05'], 120),
               ('04497ff1feb6', ['select'], 125)],
     'fingerprint': '4b75ec8a4d8347ef69b34115243a4a3470ef054239f271f3662764d246c67d79',
     'feedback_refs': ['rejected-value', 'user-correction']},
 7: {'ticks': [('0b96518e282f', ['fuse', 'select'], 42),
               ('0b96518e282f', ['resolve'], 45),
               ('0b96518e282f', ['match:retailer-02'], 54),
               ('0b96518e282f', ['select'], 59),
               ('0b96518e282f', ['fuse', 'select'], 64),
               ('0b96518e282f', ['resolve'], 67),
               ('d89c091c9078', ['match:retailer-00'], 76),
               ('d89c091c9078', ['select'], 81),
               ('d89c091c9078', ['fuse', 'select'], 86),
               ('d89c091c9078', ['resolve'], 89),
               ('d89c091c9078', ['match:retailer-04'], 98),
               ('d89c091c9078', ['select'], 103),
               ('d89c091c9078', ['fuse', 'select'], 108),
               ('09ed2a4efffc', ['resolve'], 111),
               ('15d3c1a32349', ['match:retailer-05'], 120),
               ('15d3c1a32349', ['select'], 125)],
     'fingerprint': '5885baf74238b512b553448c34bd3b5197dbb6138f3ff9d1376dc9d0432cad48',
     'feedback_refs': ['rejected-value', 'user-correction']},
 9: {'ticks': [('bcb08fa842dd', ['fuse', 'select'], 42),
               ('bcb08fa842dd', ['resolve'], 45),
               ('bcb08fa842dd', ['match:retailer-02'], 54),
               ('bcb08fa842dd', ['select'], 59),
               ('7df59ed67346', ['fuse', 'plan', 'select'], 95),
               ('7df59ed67346', ['resolve'], 98),
               ('7df59ed67346', ['match:retailer-00'], 107),
               ('7df59ed67346', ['select'], 112),
               ('7df59ed67346', ['fuse', 'select'], 117),
               ('7df59ed67346', ['resolve'], 120),
               ('7df59ed67346', ['match:retailer-01'], 129),
               ('7df59ed67346', ['select'], 134),
               ('7df59ed67346', ['fuse', 'select'], 139),
               ('7df59ed67346', ['resolve'], 142),
               ('b6bffe816ecb', ['match:retailer-02'], 151),
               ('b6bffe816ecb', ['select'], 156)],
     'fingerprint': '9b89e5b229900abb2ee63a0fc3d3bff4f58fbf69fdc1ba5e4973465f5e5f2bb5',
     'feedback_refs': ['rejected-value']},
 29: {'ticks': [('d89c091c9078', ['fuse', 'select'], 42),
                ('d89c091c9078', ['resolve'], 45),
                ('d89c091c9078', ['match:retailer-02'], 54),
                ('d89c091c9078', ['select'], 59),
                ('d89c091c9078', ['fuse', 'select'], 64),
                ('d89c091c9078', ['resolve'], 67),
                ('d89c091c9078', ['match:retailer-00'], 76),
                ('d89c091c9078', ['select'], 81),
                ('d89c091c9078', ['fuse', 'select'], 86),
                ('d89c091c9078', ['resolve'], 89),
                ('d89c091c9078', ['match:retailer-04'], 98),
                ('d89c091c9078', ['select'], 103),
                ('d89c091c9078', ['fuse', 'select'], 108),
                ('70851250f7c5', ['resolve'], 111),
                ('0fdd863c2135', ['match:retailer-05'], 120),
                ('0fdd863c2135', ['select'], 125)],
      'fingerprint': '48fbe0d755ef417e342290110522ff3f145d31eef05a232cf71dab2ed785da65',
      'feedback_refs': ['user-correction']}}


def _quickstart():
    spec = importlib.util.spec_from_file_location("quickstart_plan", QUICKSTART)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs_digest(wrangler, result) -> str:
    """Matched pairs by *position* in the translated table (record ids
    come from a process-global counter), confidences by ``repr``."""
    position = {
        record.rid: index
        for index, record in enumerate(wrangler.relations()["translated"])
    }
    lines = sorted(
        f"{sorted((position[a], position[b]))}:{confidence!r}"
        for (a, b), confidence in result.resolution.matched_pairs.items()
    )
    return hashlib.sha1("\n".join(lines).encode("utf-8")).hexdigest()[:12]


def _item(kind, cycle, rng, world, wrangler, result):
    sources = result.plan.sources
    source = sources[cycle % len(sources)]
    if kind == "value":
        table = result.table
        record = table[rng.randrange(len(table))]
        truth = {
            r.raw("product_id"): r.raw("price") for r in world.ground_truth
        }.get(record.raw(TRUTH_COLUMN))
        if cycle % 2 == 0:
            return ValueFeedback(
                entity=record.rid, attribute="price",
                is_correct=record.raw("price") == truth,
            )
        return ValueFeedback(
            entity=record.rid, attribute="price", is_correct=False,
            correction=truth if cycle % 4 == 1 else None,
        )
    if kind == "duplicate":
        translated = wrangler.relations()["translated"]
        at = rng.randrange(len(translated))
        left = translated[at]
        truth = left.raw(TRUTH_COLUMN)
        partners = [
            record for record in translated
            if record.raw(TRUTH_COLUMN) == truth and record.rid != left.rid
        ]
        if cycle % 2 == 0 and partners:
            right = partners[0]
        else:
            right = translated[(at + 1) % len(translated)]
        return DuplicateFeedback(
            rid_a=left.rid, rid_b=right.rid,
            is_duplicate=truth is not None
            and right.raw(TRUTH_COLUMN) == truth,
        )
    if kind == "match":
        canonical = MATCH_ATTRIBUTES[cycle % len(MATCH_ATTRIBUTES)]
        return MatchFeedback(
            source_name=source,
            source_attribute=world.renames[source][canonical],
            target_attribute=canonical,
            is_correct=True,
        )
    return RelevanceFeedback(source_name=source, is_relevant=True)


def run_session(seed):
    """``(per-tick observations, final fingerprint, feedback refs)``."""
    world = generate_world(n_products=60, n_sources=6, seed=2016)
    wrangler = _quickstart().build_wrangler(world)
    rng = random.Random(seed)
    result = wrangler.run()
    ticks = []
    for index in range(TICKS):
        item = _item(
            KINDS[index % len(KINDS)], index // len(KINDS),
            rng, world, wrangler, result,
        )
        wrangler.apply_feedback([item])
        applied = wrangler.telemetry.tracer.find("feedback.apply")[-1]
        result = wrangler.run()
        ticks.append((
            _pairs_digest(wrangler, result),
            list(applied.attributes["invalidated"]),
            wrangler.recompute_count(),
        ))
    refs = sorted(
        record.get(name).provenance.ref
        for record in result.table
        for name in record.cells
        if record.get(name).provenance.step is Step.FEEDBACK
    )
    return ticks, table_fingerprint(result.table), refs


@pytest.mark.parametrize("seed", sorted(EXPECTED))
def test_sixteen_tick_session_is_bit_identical_to_the_recording(seed):
    ticks, fingerprint, refs = run_session(seed)
    assert refs == EXPECTED[seed]["feedback_refs"]
    assert ticks == EXPECTED[seed]["ticks"]
    assert fingerprint == EXPECTED[seed]["fingerprint"]
