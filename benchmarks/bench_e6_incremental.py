"""E6 — Feedback must not trigger full reprocessing (Sections 2.4, 4.2).

Claim: "It is of paramount importance that these feedback-induced
'reactions' do not trigger a re-processing of all datasets involved in the
computation but rather limit the processing to the strictly necessary
data."

For each feedback type we measure how many dataflow nodes recompute, how
many were cut off (dirty, but nothing they read changed, so marked clean
without running), against a from-scratch pipeline run.  The table holds
those counts only, so a regeneration rewrites it byte for byte; the
wall-clock of each refresh goes to stdout and to the telemetry file as
an ``e6.<trigger>.wall_s`` gauge.  Expected shape: every feedback type
recomputes a small fraction of the graph; a relevance or duplicate
verdict that leaves the selection or the ER rule where it was stops
after at most three nodes.
"""

from repro.feedback.types import (
    DuplicateFeedback,
    MatchFeedback,
    RelevanceFeedback,
    ValueFeedback,
)

from helpers import (
    build_wrangler,
    emit,
    emit_telemetry,
    format_table,
    standard_world,
)

WORLD = standard_world(n_products=50, n_sources=6, seed=606)


def last_run_seconds(wrangler):
    """Wall-clock of the most recent run, from its own tracer span."""
    return wrangler.telemetry.tracer.find("wrangle.run")[-1].duration


def fresh_wrangler():
    wrangler = build_wrangler(WORLD)
    result = wrangler.run()
    return wrangler, result, last_run_seconds(wrangler)


def cutoff_count(wrangler):
    return sum(
        stats["cutoffs"] for stats in wrangler.flow.node_stats().values()
    )


def refresh_after(wrangler, items):
    base, cut = wrangler.recompute_count(), cutoff_count(wrangler)
    wrangler.apply_feedback(items)
    wrangler.run()
    return (
        wrangler.recompute_count() - base,
        cutoff_count(wrangler) - cut,
        last_run_seconds(wrangler),
    )


def test_e6_incremental_recomputation(benchmark):
    wrangler, result, full_time = fresh_wrangler()
    total_nodes = len(wrangler.flow.nodes())
    translated = wrangler.working.get("table", "translated")
    rid_a, rid_b = translated[0].rid, translated[1].rid

    feedback_cases = [
        ("value", [ValueFeedback(entity=result.table[0].rid,
                                 attribute="price", is_correct=True)]),
        ("duplicate", [DuplicateFeedback(rid_a=rid_a, rid_b=rid_b,
                                         is_duplicate=False)]),
        ("match", [MatchFeedback(source_name=result.plan.sources[0],
                                 source_attribute="cost",
                                 target_attribute="price",
                                 is_correct=True)]),
        ("relevance", [RelevanceFeedback(
            source_name=result.plan.sources[0], is_relevant=True)]),
    ]
    rows = [["(full pipeline)", total_nodes, 0]]
    timings = {"full": full_time}
    recomputes = {}
    for label, items in feedback_cases:
        recomputed, cut_off, elapsed = refresh_after(wrangler, items)
        recomputes[label] = recomputed
        timings[label] = elapsed
        rows.append([label, recomputed, cut_off])
    for label, elapsed in timings.items():
        wrangler.telemetry.metrics.gauge(f"e6.{label}.wall_s").set(elapsed)
        print(f"E6 {label}: {elapsed * 1000:.0f} ms")

    def incremental_value_refresh():
        wrangler.apply_feedback(
            [ValueFeedback(entity=result.table[0].rid, attribute="price",
                           is_correct=True)]
        )
        wrangler.run()

    benchmark(incremental_value_refresh)
    emit(
        "E6-incremental",
        format_table(
            ["trigger", "nodes recomputed", "cut off"], rows
        ),
    )
    emit_telemetry(
        "E6-incremental",
        wrangler.telemetry.snapshot(dataflow=wrangler.flow.node_stats()),
    )
    # No feedback type reprocesses even half of the pipeline.
    for label, recomputed in recomputes.items():
        fraction = recomputed / total_nodes
        assert fraction < 0.5, f"{label} feedback recomputed {fraction:.0%}"
    # Re-selecting the same mappings / refitting the same rule stops there.
    assert recomputes["relevance"] <= 3
    assert recomputes["duplicate"] <= 3
    # Acquisition (the expensive part) is never redone for any of them.
    for name in WORLD.source_rows:
        assert wrangler.flow.runs(f"acquire:{name}") <= 1
