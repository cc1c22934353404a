"""Alternating parent/change benchmark pairs for one workload.

    python3 tools/bench_pairs.py --workload NAME [--seed N] [--pairs 10]
                                 [--ref HEAD]

(``make bench-pairs WORKLOAD=… SEED=… PAIRS=10 REF=HEAD`` runs the
same.)  ``--ref`` is checked out into a temporary ``git worktree``: that
is the *parent* side.  The *change* side is this working tree, edits
included.  Each pair runs ``bench/run.py`` in gate mode (``--trace 0``,
its default measuring time) once per side, one run at a time — two runs at once slow each other
unevenly — and flips which side goes first from one pair to the next,
so a slow spell of the machine lands on both sides alike.

Prints, per end-to-end metric of ``BENCHMARK.json``, each side's median
and quartiles, the change of the median, how many pairs the change won
(by the metric's ``better`` direction), and whether the medians differ
by more than the parent's interquartile range.  Exits 1 if any run
fails or reports failed ops.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def gate_run(checkout: Path, workload: str, seed: int) -> dict:
    """One ``bench/run.py`` gate run in ``checkout``: its last-line JSON."""
    done = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", "0",
        ],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(
            f"bench/run.py in {checkout} exited {done.returncode}:\n{done.stderr}"
        )
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(
        values, n=4, method="inclusive"
    )
    return first, median, third


def summarise(pairs: list[tuple[dict, dict]], declared: list[dict]) -> list[dict]:
    """Per declared metric, both sides' quartiles and the change's wins.

    ``pairs`` holds ``(parent metrics, change metrics)`` per pair, each a
    name → value mapping.
    """
    rows = []
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p[name] for p, __ in pairs]
        change = [c[name] for __, c in pairs]
        wins = sum(
            (c < p) if lower else (c > p) for p, c in zip(parent, change)
        )
        p1, p2, p3 = quartiles(parent)
        c1, c2, c3 = quartiles(change)
        rows.append({
            "name": name,
            "better": metric["better"],
            "parent": (p1, p2, p3),
            "change": (c1, c2, c3),
            "delta": (c2 - p2) / p2 if p2 else 0.0,
            "wins": wins,
            "beyond_iqr": abs(c2 - p2) > p3 - p1
            and ((c2 < p2) if lower else (c2 > p2)),
        })
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--ref", default="HEAD", help="the parent side")
    args = parser.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{args.ref}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    parent_tree = scratch / "parent"
    subprocess.run(
        ["git", "worktree", "add", "--detach", str(parent_tree), commit],
        cwd=ROOT, capture_output=True, check=True,
    )
    pairs, failed = [], 0
    try:
        for index in range(args.pairs):
            sides = {"parent": parent_tree, "change": ROOT}
            order = ["parent", "change"] if index % 2 == 0 else ["change", "parent"]
            outcome = {}
            for side in order:
                report = gate_run(sides[side], args.workload, args.seed)
                failed += report["failed"] + (not report["correct"])
                outcome[side] = {
                    name: cell["value"]
                    for name, cell in report["metrics"].items()
                }
            pairs.append((outcome["parent"], outcome["change"]))
            print(
                f"pair {index + 1}/{args.pairs} ({order[0]} first): "
                f"op_s_p50 parent {outcome['parent']['op_s_p50']:.4f} "
                f"change {outcome['change']['op_s_p50']:.4f}",
                flush=True,
            )
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(parent_tree)],
            cwd=ROOT, capture_output=True,
        )
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"\n{args.workload}, seed {args.seed}, {len(pairs)} pairs: "
          f"parent {args.ref} ({commit[:10]}) vs this working tree")
    print(f"{'metric':20s} {'better':6s} {'parent median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} {'delta':>8s} {'wins':>6s} "
          f"{'>IQR':>5s}")
    for row in summarise(pairs, declared):
        parent, change = (
            f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
            for q in (row["parent"], row["change"])
        )
        print(
            f"{row['name']:20s} {row['better']:6s} {parent:>36s} "
            f"{change:>36s} {row['delta']:+8.2%} "
            f"{row['wins']:>3d}/{len(pairs):<2d} "
            f"{'yes' if row['beyond_iqr'] else 'no':>5s}"
        )
    if failed:
        print(f"FAILED: {failed} failed ops or incorrect runs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
