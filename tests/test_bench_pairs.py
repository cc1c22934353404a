"""The summary ``tools/bench_pairs.py`` prints after its alternating runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DECLARED = [
    {"name": "op_s_p50", "better": "lower"},
    {"name": "rows_per_s", "better": "higher"},
]


def test_wins_follow_each_metrics_direction(bench_pairs):
    pairs = [
        ({"op_s_p50": 1.0, "rows_per_s": 10.0}, {"op_s_p50": 0.8, "rows_per_s": 12.0}),
        ({"op_s_p50": 1.1, "rows_per_s": 11.0}, {"op_s_p50": 1.2, "rows_per_s": 11.0}),
        ({"op_s_p50": 0.9, "rows_per_s": 9.0}, {"op_s_p50": 0.7, "rows_per_s": 8.0}),
    ]
    op, rows = bench_pairs.summarise(pairs, DECLARED)
    assert op["wins"] == 2          # lower is better; a loss in pair two
    assert rows["wins"] == 1        # higher is better; a tie is no win
    assert op["parent"] == (0.95, 1.0, 1.05)
    assert op["change"][1] == 0.8
    assert op["delta"] == pytest.approx(-0.2)


def test_beyond_iqr_needs_a_gap_wider_than_the_parents_spread_the_right_way(
    bench_pairs,
):
    parent = [1.00, 1.02, 1.04, 1.06]          # IQR 0.03
    faster = [(
        {"op_s_p50": p, "rows_per_s": 1.0}, {"op_s_p50": p - 0.05, "rows_per_s": 1.0}
    ) for p in parent]
    slower = [(
        {"op_s_p50": p, "rows_per_s": 1.0}, {"op_s_p50": p + 0.05, "rows_per_s": 1.0}
    ) for p in parent]
    assert bench_pairs.summarise(faster, DECLARED)[0]["beyond_iqr"]
    assert not bench_pairs.summarise(slower, DECLARED)[0]["beyond_iqr"]
    assert not bench_pairs.summarise(faster, DECLARED)[1]["beyond_iqr"]
