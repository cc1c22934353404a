"""One round of one workload, in a process of its own.

Started by ``run.py``; prints one JSON report on its last line.  A fresh
process per round makes ``setup_s`` include ``import repro`` and makes
``ru_maxrss`` the workload's own peak, not the harness's.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

#: Processor seconds one ``speed_probe`` takes at its quickest in an
#: ordinary quiet spell of the machine that recorded
#: ``results/latest.json`` (its best spells read 0.92 of this).  Op
#: seconds are reported at that speed: a round's ops are divided by how
#: much slower than this the probe ran at its quickest in that round.
#: The value only sets the scale; changing it moves every baseline.
PROBE_BASELINE_S = 0.1100
#: Probes run in the gaps around a round's ops, at least this many a round.
PROBES_PER_ROUND = 6

_rng = random.Random(2016)
#: 20,000 words: with the prefix counts a working set of a few MB, which
#: a slow spell of the box slows as it slows the pipeline (a probe over
#: 2,000 words that stayed in cache read 1.08 where ticks ran 1.15x).
PROBE_WORDS = [
    "".join(_rng.choices("abcdefghijklmnopqrstuvwxyz0123456789 ",
                         k=_rng.randrange(8, 24)))
    for _ in range(20000)
]


def speed_probe() -> float:
    """Processor seconds of a fixed pure-Python kernel (str/dict/set/sort).

    It shares nothing with ``src/`` and allocates only short-lived
    objects (collector off, so the program's heap is never walked), so
    what moves its time is the machine, not the program.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.process_time()
        for _ in range(2):
            counts: dict[str, int] = {}
            shared = 0
            previous = PROBE_WORDS[-1]
            for word in PROBE_WORDS:
                for token in word.split():
                    counts[token[:3]] = counts.get(token[:3], 0) + len(token)
                shared += len(set(word) & set(previous))
                previous = word
            sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        return time.process_time() - started
    finally:
        if collecting:
            gc.enable()


def tree_bytes(root) -> int:
    if root is None or not root.exists():
        return 0
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def span_count(spans) -> int:
    return sum(1 + span_count(span.get("children") or ()) for span in spans)


def cumulative(wrangler, result) -> dict[str, float]:
    """The running totals a wrangler's public results expose."""
    totals = {
        "access_cost": result.access_cost,
        "recomputed": float(wrangler.recompute_count()),
    }
    telemetry = result.telemetry
    for name, value in telemetry["metrics"]["counters"].items():
        totals[f"counter.{name}"] = value
    try:
        for node in telemetry["dataflow"]["nodes"].values():
            key = f"stage.{node['stage']}"
            totals[key] = totals.get(key, 0.0) + node["seconds"]
    except (KeyError, TypeError):
        pass  # the node-stats schema moved: stages go unreported
    return totals


class Deltas:
    """Per-op differences of a wrangler's cumulative totals."""

    def __init__(self) -> None:
        self.wrangler = None
        self.last: dict[str, float] = {}

    def step(self, wrangler, result) -> dict[str, float]:
        if wrangler is not self.wrangler:
            self.wrangler, self.last = wrangler, {}
        totals = cumulative(wrangler, result)
        delta = {
            key: value - self.last.get(key, 0.0)
            for key, value in totals.items()
        }
        self.last = totals
        return delta


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.time() when the parent started us")
    parser.add_argument("--may-redraw", action="store_true",
                        help="stop after set-up if the plan drops a source")
    parser.add_argument("--spans-out", type=Path,
                        help="trace this round and write its spans here")
    args = parser.parse_args()

    recorder, unresolved = None, []
    if args.spans_out is not None:
        import spans

        recorder = spans.Recorder()
        unresolved = spans.install(recorder)

    import checks
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    deltas = Deltas()
    result = workload.result
    if result is not None:
        if args.may_redraw and not workload.keeps_fleet(result):
            print(json.dumps({"redraw": True}))
            return 0
        deltas.step(workload.wrangler, result)

    def play(index: int) -> dict:
        """One op of the script: prepare, time, check."""
        nonlocal result
        prepared = workload.prepare(index)
        disk_before = tree_bytes(workload.store_root)
        failure = None
        if recorder is not None and index >= 0:
            recorder.op = index
            span = recorder.start("harness", "op")
        started, cpu_started = time.perf_counter(), time.process_time()
        try:
            wrangler, result = workload.op(prepared)
        except Exception:  # noqa: BLE001 - a raising op is a failed op
            failure = traceback.format_exc(limit=3).strip().splitlines()[-1]
        cpu_seconds = time.process_time() - cpu_started
        seconds = time.perf_counter() - started
        if recorder is not None and index >= 0:
            recorder.end(span)
            recorder.op = None
        op = {"seconds": seconds, "cpu_seconds": cpu_seconds, "failure": failure}
        if failure is None:
            delta = deltas.step(wrangler, result)
            nodes = len(result.telemetry["dataflow"]["nodes"])
            outcome = workload.check(prepared, wrangler, result)
            if outcome.pop("incremental", False):
                outcome["failure"] = outcome["failure"] or checks.incremental(
                    int(delta["recomputed"]), nodes
                )
            op.update(outcome)
            op["delta"] = delta
            op["nodes"] = nodes
            op["telemetry_spans"] = span_count(result.telemetry["spans"])
            op["disk_bytes"] = tree_bytes(workload.store_root) - disk_before
        return op

    # Warm-up ticks (negative indices) are part of set-up: checked, and
    # their spend counted with set-up's, but not timed.
    warmups = [play(index) for index in range(-workload.warmup_ops, 0)]
    setup_access_cost = deltas.last.get("access_cost", 0.0)
    setup_s = time.time() - args.spawned

    ops = []
    probes = []
    per_gap = -(-PROBES_PER_ROUND // (workload.ops_per_round + 1))
    for index in range(workload.ops_per_round):
        probes += [speed_probe() for _ in range(per_gap)]
        ops.append(play(index))
    probes += [speed_probe() for _ in range(per_gap)]

    report = {
        "redraw": result is not None and not workload.keeps_fleet(result),
        "setup_s": setup_s,
        "setup_access_cost": setup_access_cost,
        "warmup_failures": [op["failure"] for op in warmups],
        # How much slower than the baseline machine this one ran while
        # the script played, at its quickest.
        "slowdown": min(probes) / PROBE_BASELINE_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ops": ops,
        "unresolved_entrypoints": unresolved,
    }
    if result is not None:
        report["fingerprint"] = checks.table_fingerprint(result.table)
        report["quality"] = checks.quality(
            result, workload.world, workload.truth_of
        )
    if recorder is not None:
        report["layers"] = {
            str(op): values for op, values in recorder.by_op().items()
        }
        args.spans_out.write_text(
            json.dumps({"fields": list(spans.FIELDS), "spans": recorder.spans})
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
