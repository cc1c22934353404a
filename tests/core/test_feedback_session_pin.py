"""A 16-tick feedback session, pinned end to end.

The literals below were recorded when ``apply_feedback`` began folding
each feedback item into the source beliefs once (it used to re-observe
every past value verdict and re-annotate every past relevance verdict on
each call): per tick the matched pairs with their confidences (they move
whenever the fitted threshold does), the nodes the feedback invalidated
and the running recompute count; at the end the wrangled table's
fingerprint.  A move that changes any decision changes a literal.

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
#: ``Step.FEEDBACK`` refs on the final table.  Seed 0 refits the ER
#: threshold on four mixed labels and ends with both refs; 7, 9 and 29
#: reach a replan that pays (its re-acquisition gives the records new
#: ids, so the duplicate labels judged before it no longer refit).
EXPECTED = {0: {'ticks': [('0b96518e282f', ['fuse', 'select'], 42),
               ('0b96518e282f', ['resolve'], 45),
               ('0b96518e282f', ['match:retailer-02'], 54),
               ('0b96518e282f', ['select'], 59),
               ('1dc7b7eccd9c', ['fuse', 'select'], 64),
               ('1dc7b7eccd9c', ['resolve'], 67),
               ('1dc7b7eccd9c', ['match:retailer-00'], 76),
               ('1dc7b7eccd9c', ['select'], 81),
               ('8a1ffbd0e80b', ['fuse', 'select'], 86),
               ('8a1ffbd0e80b', ['resolve'], 89),
               ('8a1ffbd0e80b', ['match:retailer-04'], 98),
               ('8a1ffbd0e80b', ['select'], 103),
               ('d89c091c9078', ['fuse', 'select'], 108),
               ('04497ff1feb6', ['resolve'], 111),
               ('04497ff1feb6', ['match:retailer-05'], 120),
               ('04497ff1feb6', ['select'], 125)],
     'fingerprint': '346fe4a7480d22f6f19ba69d74537523c613e4a70baeb632abfa0451afff724f',
     'feedback_refs': ['rejected-value', 'user-correction']},
 7: {'ticks': [('0b96518e282f', ['fuse', 'select'], 42),
               ('0b96518e282f', ['resolve'], 45),
               ('0b96518e282f', ['match:retailer-02'], 54),
               ('0b96518e282f', ['select'], 59),
               ('1dc7b7eccd9c', ['fuse', 'select'], 64),
               ('1dc7b7eccd9c', ['resolve'], 67),
               ('1dc7b7eccd9c', ['match:retailer-00'], 76),
               ('1dc7b7eccd9c', ['select'], 81),
               ('a2e120142fb0', ['fuse', 'select'], 86),
               ('a2e120142fb0', ['resolve'], 89),
               ('a2e120142fb0', ['match:retailer-04'], 98),
               ('a2e120142fb0', ['select'], 103),
               ('a4ad09d3eec3', ['fuse', 'plan', 'select'], 139),
               ('a4ad09d3eec3', ['resolve'], 142),
               ('a4ad09d3eec3', ['match:retailer-05'], 151),
               ('a4ad09d3eec3', ['select'], 156)],
     'fingerprint': 'd2f7cbc1572b36e4b048f7c3f8093e206f67a58878b3a37bf6627b87eb2b78d1',
     'feedback_refs': []},
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
               ('b6bffe816ecb', ['fuse', 'select'], 139),
               ('b6bffe816ecb', ['resolve'], 142),
               ('b6bffe816ecb', ['match:retailer-02'], 151),
               ('b6bffe816ecb', ['select'], 156)],
     'fingerprint': '976714e6490873eb666f5971cac4c409a24e0a61405fe7ee42436c69f303da2e',
     'feedback_refs': ['rejected-value']},
 29: {'ticks': [('d89c091c9078', ['fuse', 'select'], 42),
                ('d89c091c9078', ['resolve'], 45),
                ('d89c091c9078', ['match:retailer-02'], 54),
                ('d89c091c9078', ['select'], 59),
                ('1dc7b7eccd9c', ['fuse', 'select'], 64),
                ('1dc7b7eccd9c', ['resolve'], 67),
                ('1dc7b7eccd9c', ['match:retailer-00'], 76),
                ('1dc7b7eccd9c', ['select'], 81),
                ('56760a284b1c', ['fuse', 'select'], 86),
                ('56760a284b1c', ['resolve'], 89),
                ('56760a284b1c', ['match:retailer-04'], 98),
                ('56760a284b1c', ['select'], 103),
                ('a4ad09d3eec3', ['fuse', 'plan', 'select'], 139),
                ('a4ad09d3eec3', ['resolve'], 142),
                ('a4ad09d3eec3', ['match:retailer-05'], 151),
                ('a4ad09d3eec3', ['select'], 156)],
      'fingerprint': '200c8d7a6c9100abf681ffdb6ddf5c91602bd1b631974bc15e00463a7a06ad6e',
      'feedback_refs': []}}


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
