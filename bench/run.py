"""The repo benchmark: four end-to-end wrangle workloads, measured outside-in.

Gate mode (what ``BENCHMARK.json`` names)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and prints, as the last line of standard output, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Suite mode (no ``--trace``) runs every workload both
ways, prints the tables and writes ``bench/results/``; ``--repeat-check``
runs the suite twice and compares the two.  See ``bench/README.md``.

A run is a sequence of *rounds*, each a fresh child process that sets
the workload up and then plays its fixed op script; rounds repeat until
``--seconds`` is spent.  An op's seconds are the processor seconds it
took, divided by how much slower than the baseline machine the round's
speed probes ran (``child.speed_probe``): a shared box slows down by a
third for a minute at a time, which is as long as a run.  Samples are
then pooled by op index (minimum across rounds, then the statistic across
indices): work per op index is fixed by the script, so what still differs
between rounds is machine noise, and that noise only ever adds time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
RESULTS = BENCH / "results"

#: What a metric reads when its layer's entry points no longer resolve
#: (or the telemetry schema it is read from has moved).
UNMEASURED = -1.0

#: A round that has not reported after this long is killed and the run
#: fails; the contract allows a run 180 seconds.
ROUND_TIMEOUT_S = 150

#: A run's world seed is ``seed * REDRAW_SPAN + redraws``: a world on
#: which the planner drops a source of the fleet is drawn again (see
#: ``workloads.ColdStructured.keeps_fleet``), at most this many times.
REDRAW_SPAN = 100
MAX_REDRAWS = 5

QUALITY = ("er_f1", "price_accuracy", "coverage")

#: The attribution guard of a traced suite run (satellite 4).
MAX_UNATTRIBUTED = 0.10
MAX_OVERHEAD = 0.10


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- running rounds --------------------------------------------------------


def run_round(
    workload: str, seed: int, workdir: Path, traced: bool, may_redraw: bool
) -> dict:
    """One child process: set up, play the op script, report."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    command = [
        sys.executable, str(BENCH / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--workdir", str(workdir), "--spawned", repr(time.time()),
    ]
    if may_redraw:
        command.append("--may-redraw")
    spans_path = workdir / "spans.json"
    if traced:
        command += ["--spans-out", str(spans_path)]
    started = time.perf_counter()
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"round of {workload} exited {done.returncode}:\n{done.stderr}"
        )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    report["duration_s"] = time.perf_counter() - started
    if traced and spans_path.exists():
        report["spans"] = json.loads(spans_path.read_text())
    return report


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Rounds until ``seconds`` is spent: (untraced rounds, traced rounds).

    A traced run alternates traced and untraced rounds, so the tracing
    overhead is a paired measurement inside one run.
    """
    workdir = WORK / f"{workload}-{os.getpid()}"
    rounds: tuple[list, list] = ([], [])
    redraws = 0
    started = time.perf_counter()
    try:
        while True:
            traced = trace and len(rounds[1]) <= len(rounds[0])
            may_redraw = not any(rounds) and redraws < MAX_REDRAWS
            report = run_round(
                workload, seed * REDRAW_SPAN + redraws, workdir, traced,
                may_redraw,
            )
            if may_redraw and report["redraw"]:
                redraws += 1
                continue
            rounds[traced].append(report)
            elapsed = time.perf_counter() - started
            enough = rounds[0] and (rounds[1] or not trace)
            # One more round if at least half of it still fits: a run
            # lasts ``seconds`` on average, not at most.
            if enough and elapsed + report["duration_s"] / 2 > seconds:
                return rounds
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()


# -- pooling ---------------------------------------------------------------


def pooled_seconds(rounds, wall: bool = False) -> list[float]:
    """Per op index, the least of that op's seconds across rounds.

    An op's seconds are its processor seconds at the baseline machine's
    speed; ``wall=True`` reads the raw wall clock instead.
    """
    readings = [
        [
            op["seconds"] if wall else op["cpu_seconds"] / r["slowdown"]
            for op in r["ops"]
        ]
        for r in rounds
    ]
    return [min(same_index) for same_index in zip(*readings)]


def p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def all_ops(rounds) -> list[dict]:
    return [op for r in rounds for op in r["ops"]]


def mean_per_op(ops, value) -> float:
    return sum(value(op) for op in ops) / len(ops)


def end_to_end(rounds) -> dict[str, float]:
    """The gated metrics of one run's untraced rounds."""
    seconds = pooled_seconds(rounds)
    script = rounds[0]["ops"]
    spent = rounds[0]["setup_access_cost"] + sum(
        op.get("delta", {}).get("access_cost", 0.0) for op in script
    )
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "op_s_p50": statistics.median(seconds),
        "rows_per_s": sum(op.get("rows", 0) for op in script) / sum(seconds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        # Set-up's acquisitions are amortised over the script, so the
        # metric is never 0 and work moved into set-up still shows.
        "access_cost_per_op": spent / len(script),
    }
    metrics.update(rounds[0].get("quality") or dict.fromkeys(QUALITY, 0.0))
    return metrics


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(untraced, traced, declared) -> dict[str, float]:
    """Every per-layer metric of one traced run, as a mean per op."""
    import spans

    ops = [op for op in all_ops(traced) if op["failure"] is None]
    layers = [
        values for r in traced for values in r["layers"].values()
    ]
    unresolved = {
        name for r in traced for name in r["unresolved_entrypoints"]
    }
    dead_layers = {
        layer for layer, module, dotted, __, __ in spans.ENTRY_POINTS
        if f"{module}.{dotted}" in unresolved
    }

    def traced_mean(name: str) -> float:
        return sum(values.get(name, 0.0) for values in layers) / len(layers)

    def counter(name: str) -> float:
        return mean_per_op(
            ops, lambda op: op["delta"].get(f"counter.{name}", 0.0)
        )

    metrics = {
        name: traced_mean(name)
        for name in declared
        if name.endswith((".self_s", ".calls"))
    }
    # The counts the wrappers take at their boundaries.
    for __, __, __, measures, __ in spans.ENTRY_POINTS:
        for name in measures:
            metrics[name] = traced_mean(name)

    def reported(name: str) -> float:
        return mean_per_op(ops, lambda op: op.get("counters", {}).get(name, 0))

    extracted = reported("extraction.rows_out")
    listings = reported("extraction.listings")
    candidates = counter("kernels.candidates")
    delta_fetches = counter("ingest.delta.fetches")
    fallbacks = counter("ingest.delta.fallbacks")
    recomputed = mean_per_op(ops, lambda op: op["delta"]["recomputed"])
    nodes = mean_per_op(ops, lambda op: op["nodes"])
    op_seconds = mean_per_op(ops, lambda op: op["seconds"])
    pairs = min(len(untraced), len(traced))
    unattributed = traced_mean("harness.self_s") + traced_mean(
        "core.wrangler.self_s"
    )
    metrics.update({
        "sources.access_cost": mean_per_op(
            ops, lambda op: op["delta"]["access_cost"]
        ),
        "extraction.rows_out": extracted,
        "extraction.yield_ratio": ratio(extracted, listings),
        "resolution.candidates": candidates,
        "resolution.pruned": counter("kernels.pruned"),
        "resolution.survivors": counter("kernels.survivors"),
        "resolution.dropped_members": counter("blocking.dropped_members"),
        "resolution.prune_ratio": ratio(counter("kernels.pruned"), candidates),
        "feedback.nodes_invalidated": counter("feedback.nodes_invalidated"),
        "ingest.commits": counter("ingest.commits"),
        "ingest.bytes_written": mean_per_op(ops, lambda op: op["disk_bytes"]),
        "ingest.delta_rows": counter("ingest.delta.rows"),
        "ingest.delta_fallbacks": fallbacks,
        "ingest.delta_hit_ratio": ratio(
            delta_fetches,
            delta_fetches + fallbacks + counter("ingest.full_fetches"),
        ),
        "core.dataflow.nodes_recomputed": recomputed,
        "core.dataflow.nodes_hit": nodes - recomputed,
        "core.dataflow.recompute_ratio": ratio(recomputed, nodes),
        "obs.spans": mean_per_op(ops, lambda op: op["telemetry_spans"]),
        "core.wrangler.unattributed_ratio": ratio(unattributed, op_seconds),
        "core.wrangler.op_s_p90": p90(pooled_seconds(untraced)),
        "core.wrangler.op_wall_s_p50": statistics.median(
            pooled_seconds(untraced, wall=True)
        ),
        "harness.machine_slowdown": statistics.median(
            r["slowdown"] for r in untraced + traced
        ),
        # As many rounds on each side: a minimum over more rounds reads
        # lower, which would pass for overhead.
        "trace.overhead_ratio": statistics.median(pooled_seconds(traced[:pairs]))
        / statistics.median(pooled_seconds(untraced[:pairs])) - 1.0,
    })
    for name in declared:
        layer = name.rsplit(".", 1)[0]
        if layer in dead_layers:
            metrics[name] = UNMEASURED

    # The stage cross-check: the program's own per-node seconds, from the
    # untraced rounds' telemetry, summed by Figure-1 stage.
    plain = [op for op in all_ops(untraced) if op["failure"] is None]
    stage_names = [n for n in declared if n.startswith("stage.") and n.endswith(".s")]
    if not any(key.startswith("stage.") for op in plain for key in op["delta"]):
        metrics.update(dict.fromkeys(stage_names, UNMEASURED))
        metrics["stage.coverage_ratio"] = UNMEASURED
        return metrics
    for name in stage_names:
        stage = name[: -len(".s")]
        metrics[name] = mean_per_op(
            plain, lambda op: op["delta"].get(stage, 0.0)
        )
    metrics["stage.coverage_ratio"] = ratio(
        sum(metrics[name] for name in stage_names),
        mean_per_op(plain, lambda op: op["seconds"]),
    )
    return metrics


# -- one run ---------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; the outcome in the gate's shape plus notes."""
    declared = contract()["per_layer" if trace else "end_to_end"]
    untraced, traced = measure(workload, seed, seconds, trace)
    rounds = untraced + traced
    ops = all_ops(rounds)
    # Warm-up ops are attempted ops too: one entry each, None if it held.
    warmups = [failure for r in rounds for failure in r["warmup_failures"]]
    failures = [op["failure"] for op in ops if op["failure"]]
    failures += [f"warm-up: {failure}" for failure in warmups if failure]
    fingerprints = {r.get("fingerprint") for r in rounds}
    if len(fingerprints) != 1:
        failures.append(
            f"final fingerprints differ across rounds: {sorted(map(str, fingerprints))}"
        )
    if trace:
        values = per_layer(untraced, traced, [m["name"] for m in declared])
    else:
        values = end_to_end(untraced)
    missing = {m["name"] for m in declared} ^ set(values)
    if missing:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {missing}")
    return {
        "correct": not failures,
        "attempted": len(ops) + len(warmups),
        "failed": sum(1 for op in ops if op["failure"])
        + sum(1 for failure in warmups if failure),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
        "notes": {
            "failures": failures,
            "rounds": len(untraced),
            "traced_rounds": len(traced),
            "samples": len(pooled_seconds(untraced)),
            "unresolved_entrypoints": sorted(
                {n for r in traced for n in r["unresolved_entrypoints"]}
            ),
            "spans": traced[-1]["spans"] if traced else None,
        },
    }


def print_metrics(workload: str, outcome: dict) -> None:
    notes = outcome["notes"]
    print(
        f"== {workload}: {outcome['attempted']} ops, "
        f"{outcome['failed']} failed, {notes['rounds']} untraced + "
        f"{notes['traced_rounds']} traced rounds, "
        f"{notes['samples']} pooled samples per statistic"
    )
    for name, metric in outcome["metrics"].items():
        print(f"{name:42s} {metric['value']:>16.6g} {metric['unit']}")
    for failure in notes["failures"]:
        print(f"FAILED: {failure}")
    if notes["unresolved_entrypoints"]:
        print("unresolved_entrypoints:", *notes["unresolved_entrypoints"])


def gate(args) -> int:
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_metrics(args.workload, outcome)
    del outcome["notes"]
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


# -- the suite -------------------------------------------------------------


def top_layers(metrics: dict, count: int = 5) -> list[tuple[str, float]]:
    shares = [
        (name[: -len(".self_s")], metric["value"])
        for name, metric in metrics.items()
        if name.endswith(".self_s") and metric["value"] > 0
    ]
    return sorted(shares, key=lambda share: -share[1])[:count]


def suite(seed: int, seconds: float, workloads: list[str]) -> tuple[dict, bool]:
    """Every workload untraced, then every workload traced (interleaved
    so machine drift spreads evenly); returns the results and whether
    every check held."""
    results: dict = {name: {} for name in workloads}
    ok = True
    for trace in (False, True):
        for name in workloads:
            # A traced run splits its time between traced and untraced
            # rounds; twice the time gives the overhead guard as many
            # rounds a side as an end-to-end run pools.
            outcome = run_workload(name, seed, seconds * (1 + trace), trace)
            print_metrics(name, outcome)
            ok = ok and outcome["correct"]
            entry = results[name]
            entry["per_layer" if trace else "end_to_end"] = outcome["metrics"]
            entry.setdefault("ops", 0)
            entry["ops"] += outcome["attempted"]
            entry["ops_failed"] = entry.get("ops_failed", 0) + outcome["failed"]
            if not trace:
                entry["op_fail_ratio"] = outcome["failed"] / outcome["attempted"]
                continue
            entry["unresolved_entrypoints"] = outcome["notes"][
                "unresolved_entrypoints"
            ]
            entry["spans"] = outcome["notes"]["spans"]
            metrics = outcome["metrics"]
            print(f"-- {name}: largest self-time layers (s per op)")
            for layer, self_s in top_layers(metrics):
                print(f"   {layer:20s} {self_s:10.4f}")
            for guard, limit in (
                ("core.wrangler.unattributed_ratio", MAX_UNATTRIBUTED),
                ("trace.overhead_ratio", MAX_OVERHEAD),
            ):
                if metrics[guard]["value"] > limit:
                    print(f"FAILED: {name} {guard} = "
                          f"{metrics[guard]['value']:.3f} > {limit}")
                    ok = False
    return results, ok


def write_results(results: dict, seed: int, seconds: float) -> None:
    RESULTS.mkdir(exist_ok=True)
    for name, entry in results.items():
        trace = {
            "workload": name,
            "seed": seed,
            "layers": entry.get("per_layer"),
            "unresolved_entrypoints": entry.get("unresolved_entrypoints"),
            **(entry.pop("spans", None) or {}),
        }
        (RESULTS / f"trace_{name}.json").write_text(json.dumps(trace) + "\n")
    latest = {
        "seed": seed,
        "seconds_per_run": seconds,
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "workloads": results,
    }
    (RESULTS / "latest.json").write_text(json.dumps(latest, indent=1) + "\n")


def repeat_check(seed: int, seconds: float, workloads: list[str]) -> int:
    """Two complete suites of the same commit must agree within bounds."""
    first, ok_first = suite(seed, seconds, workloads)
    second, ok_second = suite(seed, seconds, workloads)
    bounds = {m["name"]: m["bound"] for m in contract()["end_to_end"]}
    status = 0 if ok_first and ok_second else 1
    print(f"{'workload':16s} {'metric':20s} {'first':>12s} {'second':>12s} "
          f"{'gap':>8s} {'bound':>6s}")
    for name in workloads:
        for metric, bound in bounds.items():
            a = first[name]["end_to_end"][metric]["value"]
            b = second[name]["end_to_end"][metric]["value"]
            gap = abs(b - a) / abs(a)
            verdict = "" if gap <= bound else "  OVER"
            if verdict:
                status = 1
            print(f"{name:16s} {metric:20s} {a:12.6g} {b:12.6g} "
                  f"{gap:8.4f} {bound:6.2f}{verdict}")
        # Counts are exact: any drift between two runs is a defect.
        for metric, cell in first[name]["per_layer"].items():
            other = second[name]["per_layer"][metric]["value"]
            if cell["unit"] == "count" and cell["value"] != other:
                print(f"{name:16s} {metric:20s} count differs: "
                      f"{cell['value']} != {other}")
                status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="gate mode: 0 end-to-end, 1 per-layer metrics")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the suite twice and compare the two")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        sys.exit("bench/run.py measures src/repro, which is not in this tree")
    declared = contract()
    names = [w["name"] for w in declared["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    if args.seconds is None:
        args.seconds = declared["run_seconds"]

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return gate(args)
    chosen = [args.workload] if args.workload else names
    if args.repeat_check:
        return repeat_check(args.seed, args.seconds, chosen)
    results, ok = suite(args.seed, args.seconds, chosen)
    write_results(results, args.seed, args.seconds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
