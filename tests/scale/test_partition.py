"""Partitioning: the stable CRC-32 digest, skew, edge cases, co-location,
and map/reduce determinism."""

import random
import subprocess
import sys
import zlib

import pytest

from repro.errors import WranglingError
from repro.model.records import Table
from repro.scale.partition import (
    hash_partition,
    map_reduce,
    stable_digest,
)

OFFERS = Table.from_rows(
    "offers",
    [
        {"product": "tv", "retailer": "acme-shop", "price": 399},
        {"product": "tv", "retailer": "globex", "price": 389},
        {"product": "radio", "retailer": "acme-shop", "price": 25},
        {"product": "laptop", "retailer": "initech", "price": 999},
    ],
)


def old_digest(key):
    """The pre-CRC hand-rolled digest, kept for the skew comparison."""
    digest = 0
    for char in str(key):
        digest = (digest * 131 + ord(char)) % (2**31)
    return digest


class TestStableDigest:
    def test_is_crc32_of_utf8(self):
        for key in ("tv", "acme-shop", 42, ("a", 1)):
            assert stable_digest(key) == zlib.crc32(str(key).encode("utf-8"))

    def test_identical_across_processes(self):
        keys = ["tv", "acme-shop", "Ünïcode kéy", "r-17"]
        script = (
            "import sys, zlib\n"
            "sys.path.insert(0, 'src')\n"
            "from repro.scale.partition import stable_digest\n"
            f"for key in {keys!r}:\n"
            "    print(stable_digest(key))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
        ).stdout.split()
        assert [int(line) for line in out] == [
            stable_digest(key) for key in keys
        ]

    def test_partition_assignment_matches_across_processes(self):
        # The property hash_partition actually needs: digest % n is the
        # same everywhere, so coordinator and workers agree on placement.
        n = 8
        local = [stable_digest(f"key-{i}") % n for i in range(50)]
        script = (
            "import sys\n"
            "sys.path.insert(0, 'src')\n"
            "from repro.scale.partition import stable_digest\n"
            f"print([stable_digest(f'key-{{i}}') % {n} for i in range(50)])\n"
        )
        remote = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        assert remote == str(local)

    def test_measurably_lower_skew_than_old_digest(self):
        # Pathological for the old scheme: with digest*131 + ord(char),
        # the multiplier cancels mod 131 and the last character dominates
        # — keys sharing a final character collapse into a couple of the
        # 131 partitions (the 2**31 wraparound splits the single
        # congruence class, but not by much).
        n = 131
        keys = [f"user-{i}-x" for i in range(1000)]
        old_counts = [0] * n
        new_counts = [0] * n
        for key in keys:
            old_counts[old_digest(key) % n] += 1
            new_counts[stable_digest(key) % n] += 1
        uniform = len(keys) / n  # ~7.6 per partition if well mixed
        assert max(old_counts) >= len(keys) * 0.25  # catastrophic skew
        assert max(new_counts) < uniform * 4  # CRC-32 spreads ~uniformly


class TestHashPartitionEdges:
    def test_single_partition_keeps_everything(self):
        (only,) = hash_partition(OFFERS, 1)
        assert len(only) == len(OFFERS)
        assert only.name == "offers/part-0"

    def test_more_partitions_than_rows(self):
        parts = hash_partition(OFFERS, 50)
        assert len(parts) == 50
        assert sum(len(p) for p in parts) == len(OFFERS)
        assert all(p.schema is OFFERS.schema for p in parts)

    def test_nonpositive_partition_count_rejected(self):
        for bad in (0, -3):
            with pytest.raises(WranglingError):
                hash_partition(OFFERS, bad)

    def test_blocking_key_colocates_equal_keys(self):
        parts = hash_partition(
            OFFERS, 3, key=lambda r: str(r.raw("retailer"))
        )
        homes: dict = {}
        for index, part in enumerate(parts):
            for record in part.records:
                retailer = str(record.raw("retailer"))
                assert homes.setdefault(retailer, index) == index


class TestMapReduceDeterminism:
    def test_counts(self):
        assert map_reduce(OFFERS, 4, len, sum) == len(OFFERS)

    def test_result_invariant_under_permuted_input(self):
        rows = [{"k": f"key-{i}", "v": i} for i in range(60)]
        rng = random.Random(11)
        outputs = []
        for _round in range(3):
            shuffled = list(rows)
            rng.shuffle(shuffled)
            table = Table.from_rows("t", shuffled)
            outputs.append(
                map_reduce(
                    table, 7,
                    lambda part: sorted(r.raw("v") for r in part.records),
                    lambda partials: sorted(
                        value for partial in partials for value in partial
                    ),
                    key=lambda r: str(r.raw("k")),
                )
            )
        assert outputs[0] == outputs[1] == outputs[2] == list(range(60))

