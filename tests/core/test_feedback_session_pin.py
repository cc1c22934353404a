"""A 16-tick feedback session, pinned end to end.

The literals below were recorded when ``apply_feedback`` began folding
each feedback item into the source beliefs once (it used to re-observe
every past value verdict and re-annotate every past relevance verdict on
each call): per tick the matched pairs with their confidences (they move
whenever the fitted threshold does), the nodes the feedback invalidated
and the running recompute count; at the end the wrangled table's
fingerprint.  A move that changes any decision changes a literal.  The
invalidated lists and recompute counts were re-recorded when the
dataflow gained early cutoff and duplicate feedback its own ``refit``
node; every digest, fingerprint and ref stayed as recorded.  Everything
was re-recorded when ``translate`` began emitting rows in registry order
rather than rank order: the digests index pairs by position in that
table, and the session draws its duplicate pairs from it by position.

The session is the quickstart world driven the way
``bench/workloads.py::FeedbackTicks`` drives it: one item per tick,
cycling value / duplicate / match / relevance, seeded picks, verdicts
from the generator's ground truth.  Odd value cycles reject the cell
outright (alternating with and without a correction) so both
``Step.FEEDBACK`` refs occur.  Five pick seeds, chosen at the recording
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
#: ``Step.FEEDBACK`` refs on the final table.  Seeds 0 and 5 refit the ER
#: threshold on four mixed labels — 0 to 1.0, which splits the corrected
#: entity, 5 to 0.9935, ending with both refs; 7, 9 and 29 reach a replan
#: that pays (its re-acquisition gives the records new ids, so the
#: duplicate labels judged before it no longer refit).
EXPECTED = {0: {'ticks': [('980b0d1a3a63', ['fuse', 'select'], 44),
               ('980b0d1a3a63', ['refit'], 45),
               ('980b0d1a3a63', ['match:retailer-02'], 56),
               ('980b0d1a3a63', ['select'], 58),
               ('980b0d1a3a63', ['fuse', 'select'], 63),
               ('980b0d1a3a63', ['refit'], 64),
               ('980b0d1a3a63', ['match:retailer-00'], 75),
               ('980b0d1a3a63', ['select'], 77),
               ('980b0d1a3a63', ['fuse', 'select'], 82),
               ('980b0d1a3a63', ['refit'], 83),
               ('980b0d1a3a63', ['match:retailer-04'], 94),
               ('980b0d1a3a63', ['select'], 96),
               ('980b0d1a3a63', ['fuse', 'select'], 101),
               ('3f91c9f8eec8', ['refit'], 105),
               ('3f91c9f8eec8', ['match:retailer-05'], 116),
               ('3f91c9f8eec8', ['select'], 118)],
     'fingerprint': 'cc7ca204e689a1bf44fce6910225e06e0acc9d05e32a72f22c3be3b2ea81d575',
     'feedback_refs': ['rejected-value']},
 5: {'ticks': [('980b0d1a3a63', ['fuse', 'select'], 44),
               ('980b0d1a3a63', ['refit'], 45),
               ('980b0d1a3a63', ['match:retailer-02'], 56),
               ('980b0d1a3a63', ['select'], 58),
               ('980b0d1a3a63', ['fuse', 'select'], 63),
               ('980b0d1a3a63', ['refit'], 64),
               ('980b0d1a3a63', ['match:retailer-00'], 75),
               ('980b0d1a3a63', ['select'], 77),
               ('980b0d1a3a63', ['fuse', 'select'], 82),
               ('980b0d1a3a63', ['refit'], 83),
               ('980b0d1a3a63', ['match:retailer-04'], 94),
               ('980b0d1a3a63', ['select'], 96),
               ('980b0d1a3a63', ['fuse', 'select'], 101),
               ('7237dda34f98', ['refit'], 105),
               ('7237dda34f98', ['match:retailer-05'], 116),
               ('7237dda34f98', ['select'], 118)],
     'fingerprint': '3d9da39dc3dda4b9852bdcb45cd0d073a58d4f03c04eb2cb78e041246aa80ae9',
     'feedback_refs': ['rejected-value', 'user-correction']},
 7: {'ticks': [('980b0d1a3a63', ['fuse', 'select'], 44),
               ('980b0d1a3a63', ['refit'], 45),
               ('980b0d1a3a63', ['match:retailer-02'], 56),
               ('980b0d1a3a63', ['select'], 58),
               ('980b0d1a3a63', ['fuse', 'select'], 63),
               ('980b0d1a3a63', ['refit'], 64),
               ('980b0d1a3a63', ['match:retailer-00'], 75),
               ('980b0d1a3a63', ['select'], 77),
               ('889ed9be3121', ['fuse', 'select'], 84),
               ('889ed9be3121', ['refit'], 85),
               ('889ed9be3121', ['match:retailer-04'], 96),
               ('889ed9be3121', ['select'], 98),
               ('3e3b7f695b39', ['fuse', 'plan', 'select'], 136),
               ('3e3b7f695b39', ['refit'], 137),
               ('3e3b7f695b39', ['match:retailer-05'], 148),
               ('3e3b7f695b39', ['select'], 150)],
     'fingerprint': 'd2f7cbc1572b36e4b048f7c3f8093e206f67a58878b3a37bf6627b87eb2b78d1',
     'feedback_refs': []},
 9: {'ticks': [('9bc1b970a637', ['fuse', 'select'], 46),
               ('9bc1b970a637', ['refit'], 47),
               ('9bc1b970a637', ['match:retailer-02'], 58),
               ('9bc1b970a637', ['select'], 60),
               ('608281455d09', ['fuse', 'plan', 'select'], 98),
               ('608281455d09', ['refit'], 99),
               ('608281455d09', ['match:retailer-00'], 110),
               ('608281455d09', ['select'], 112),
               ('608281455d09', ['fuse', 'select'], 116),
               ('608281455d09', ['refit'], 117),
               ('608281455d09', ['match:retailer-01'], 128),
               ('608281455d09', ['select'], 130),
               ('608281455d09', ['fuse', 'select'], 135),
               ('608281455d09', ['refit'], 136),
               ('608281455d09', ['match:retailer-02'], 147),
               ('608281455d09', ['select'], 149)],
     'fingerprint': '976714e6490873eb666f5971cac4c409a24e0a61405fe7ee42436c69f303da2e',
     'feedback_refs': ['rejected-value']},
 29: {'ticks': [('980b0d1a3a63', ['fuse', 'select'], 43),
                ('980b0d1a3a63', ['refit'], 44),
                ('980b0d1a3a63', ['match:retailer-02'], 55),
                ('980b0d1a3a63', ['select'], 57),
                ('980b0d1a3a63', ['fuse', 'select'], 62),
                ('980b0d1a3a63', ['refit'], 63),
                ('980b0d1a3a63', ['match:retailer-00'], 74),
                ('980b0d1a3a63', ['select'], 76),
                ('4fe14306c62f', ['fuse', 'select'], 83),
                ('4fe14306c62f', ['refit'], 84),
                ('4fe14306c62f', ['match:retailer-04'], 95),
                ('4fe14306c62f', ['select'], 97),
                ('3e3b7f695b39', ['fuse', 'plan', 'select'], 135),
                ('3e3b7f695b39', ['refit'], 136),
                ('3e3b7f695b39', ['match:retailer-05'], 147),
                ('3e3b7f695b39', ['select'], 149)],
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


#: What the cutoff oracle forces after each tick: every global node whose
#: body reads state outside its ``inputs`` (annotations, registry trust,
#: the feedback store), and what lies between them.
FORCED = (
    "select", "rank", "translate", "refit", "resolve", "fuse", "repair",
)


def _observed(wrangler, result):
    return (
        table_fingerprint(result.table),
        _pairs_digest(wrangler, result),
        wrangler.working.table_fingerprints(),
    )


def test_cut_off_ticks_equal_a_forced_recomputation():
    """The oracle for early cutoff.  A stage body that reads state
    outside ``inputs`` is sound only while ``DIRTIES`` forces it whenever
    that state moves; over-invalidation used to hide a missing row.
    After each of eight cycling ticks, force every such node, re-run,
    and require the very same table, matched pairs and working data."""
    world = generate_world(n_products=60, n_sources=6, seed=2016)
    wrangler = _quickstart().build_wrangler(world)
    rng = random.Random(0)
    result = wrangler.run()
    cutoffs = 0
    for index in range(8):
        item = _item(
            KINDS[index % len(KINDS)], index // len(KINDS),
            rng, world, wrangler, result,
        )
        wrangler.apply_feedback([item])
        result = wrangler.run()
        cutoffs += sum(
            stats["cutoffs"] for stats in wrangler.flow.node_stats().values()
        )
        cut_off = _observed(wrangler, result)
        for node in FORCED:
            wrangler.flow.invalidate(node)
        result = wrangler.run()
        assert _observed(wrangler, result) == cut_off, (index, item)
    assert cutoffs > 0
