"""E11 — KBC's redundancy assumption vs transient data (Section 3.1).

Claim: knowledge-base construction "leans heavily on the assumption that
correct facts occur frequently (instance-based redundancy)", which works
for "slowly-changing, common sense knowledge" but fails for "highly
transient information (e.g., pricing)" — where the *freshest* claim, not
the most repeated one, is right.

We build two fact populations over the same sources: a slow-changing
attribute (brand: every historical observation is still correct) and a
transient one (price: only the latest observation is correct, but stale
observations are the redundant majority).  Frequency-based fusion
(majority, the KBC recipe) is compared with context-aware recency fusion.
Expected shape: on slow facts both win; on transient facts majority caves
to the stale majority and recency dominates.
"""

import datetime
import random

from repro.fusion.strategies import AttributeClaims, resolve
from repro.model.values import Value

from helpers import bench_telemetry, emit, emit_telemetry, format_table, timed

TODAY = datetime.date(2016, 3, 15)


def observations(n_entities: int, seed: int):
    """Per entity: one fresh correct price + several stale copies of an
    old price; brand is stable across all observations."""
    rng = random.Random(seed)
    per_entity = []
    for index in range(n_entities):
        old_price = round(rng.uniform(50, 900), 2)
        new_price = round(old_price * rng.uniform(0.8, 0.95), 2)
        brand = rng.choice(("Acme", "Globex", "Initech"))
        claims = []
        # the fresh observation (one diligent source)
        claims.append(("fresh", new_price, brand, 1.0))
        # 2-4 stale aggregators echoing the old price
        for stale in range(rng.randint(2, 4)):
            claims.append((f"stale-{stale}", old_price, brand,
                           rng.uniform(0.1, 0.4)))
        per_entity.append((new_price, old_price, brand, claims))
    return per_entity


def fuse_population(per_entity, attribute: str, strategy: str) -> float:
    correct = 0
    for new_price, old_price, brand, claims in per_entity:
        choice = resolve(strategy, AttributeClaims(
            [
                Value.of(price if attribute == "price" else claimed_brand)
                for __, price, claimed_brand, __ in claims
            ],
            [source for source, __, __, __ in claims],
            [0.6] * len(claims),
            [recency for __, __, __, recency in claims],
        ))
        expected = new_price if attribute == "price" else brand
        if choice.value.raw == expected:
            correct += 1
    return correct / len(per_entity)


def test_e11_kbc_transience(benchmark):
    telemetry = bench_telemetry()
    per_entity = observations(150, seed=1111)
    rows = []
    results = {}
    for attribute in ("brand", "price"):
        for strategy in ("majority", "recent"):
            accuracy, __ = timed(
                telemetry,
                f"fuse.{strategy}",
                lambda a=attribute, s=strategy: fuse_population(
                    per_entity, a, s
                ),
                attribute=attribute,
            )
            results[(attribute, strategy)] = accuracy
            rows.append([attribute, strategy, f"{accuracy:.3f}"])
    benchmark.pedantic(
        lambda: fuse_population(per_entity, "price", "recent"),
        rounds=3, iterations=1,
    )
    emit(
        "E11-kbc",
        format_table(["attribute", "fusion", "accuracy"], rows),
    )
    emit_telemetry("E11-kbc", telemetry.snapshot())
    # Slow-changing facts: redundancy works, both strategies are fine.
    assert results[("brand", "majority")] > 0.95
    assert results[("brand", "recent")] > 0.95
    # Transient facts: the redundancy assumption collapses...
    assert results[("price", "majority")] < 0.2
    # ...while context-aware recency fusion recovers the truth.
    assert results[("price", "recent")] > 0.9
