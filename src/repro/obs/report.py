"""Telemetry reporters and the ``python -m repro.obs.report`` CLI.

Renders a telemetry snapshot (the schema of
:mod:`repro.obs.telemetry`) as a human text report or as validated
JSON, mirroring :func:`repro.analysis.diagnostics.render_text`.

CLI usage::

    python -m repro.obs.report results/E6.telemetry.json         # text
    python -m repro.obs.report results/E6.telemetry.json --json  # JSON
    python -m repro.obs.report results/E6.telemetry.json --validate-only
    python -m repro.obs.report --json          # deterministic demo snapshot

With no input file the CLI exercises the obs primitives themselves on a
manual clock and reports that snapshot — a self-test that always emits
schema-valid output.  Exit codes: ``0`` valid, ``1`` schema violations,
``2`` CLI misuse (unreadable file, bad JSON).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Mapping, Sequence

from repro.obs.metrics import render_text as _render_metrics_text
from repro.obs.telemetry import Telemetry, validate_telemetry

__all__ = ["render_text", "render_json", "demo_snapshot", "main"]


def _span_lines(span: Mapping[str, Any], depth: int) -> list[str]:
    attributes = span.get("attributes") or {}
    noted = ", ".join(f"{k}={v}" for k, v in sorted(attributes.items()))
    suffix = f"  [{noted}]" if noted else ""
    lines = [
        f"{'  ' * depth}{span['name']}  {span.get('duration', 0.0):.6f}s"
        f"{suffix}"
    ]
    for child in span.get("children", ()):
        lines.extend(_span_lines(child, depth + 1))
    return lines


def render_text(snapshot: Mapping[str, Any]) -> str:
    """The human report: metrics, span tree, then per-node dataflow stats."""
    lines = [f"telemetry {snapshot.get('schema')} v{snapshot.get('version')}"]
    lines.append("-- metrics --")
    lines.append(_render_metrics_text(snapshot.get("metrics", {})))
    spans = snapshot.get("spans", [])
    lines.append("-- spans --")
    if spans:
        for span in spans:
            lines.extend(_span_lines(span, 0))
    else:
        lines.append("no spans recorded")
    nodes = snapshot.get("dataflow", {}).get("nodes", {})
    lines.append("-- dataflow --")
    if nodes:
        for name in sorted(nodes):
            stats = nodes[name]
            stage = stats.get("stage") or "-"
            lines.append(
                f"{name}  stage={stage} runs={stats.get('runs', 0)} "
                f"hits={stats.get('hits', 0)} "
                f"cutoffs={stats.get('cutoffs', 0)} "
                f"invalidations={stats.get('invalidations', 0)} "
                f"seconds={stats.get('seconds', 0.0):.6f}"
            )
    else:
        lines.append("no dataflow nodes recorded")
    return "\n".join(lines)


def render_json(snapshot: Mapping[str, Any]) -> str:
    """The machine report (stable key order)."""
    return json.dumps(snapshot, indent=2, sort_keys=True)


def demo_snapshot() -> dict[str, Any]:
    """A deterministic snapshot exercising every obs primitive.

    Runs on a manual clock, so repeated invocations emit byte-identical
    output — the CLI's no-input self-test.
    """
    telemetry = Telemetry.manual()
    telemetry.metrics.counter("demo.events").increment(3)
    telemetry.metrics.gauge("demo.level").set(0.75)
    histogram = telemetry.metrics.histogram("demo.seconds")
    for value in (0.010, 0.020, 0.030, 0.040):
        histogram.observe(value)
    clock = telemetry.clock
    with telemetry.tracer.span("demo.run", kind="self-test"):
        clock.advance(0.05)
        with telemetry.tracer.span("demo.stage", stage="extraction"):
            clock.advance(0.10)
    return telemetry.snapshot(
        dataflow={
            "demo-node": {
                "runs": 1, "hits": 2, "invalidations": 0,
                "seconds": 0.1, "stage": "extraction", "clean": True,
            }
        }
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="validate and render repro telemetry snapshots",
    )
    parser.add_argument(
        "path", nargs="?", default=None,
        help="telemetry JSON file (omit for a deterministic demo snapshot)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )
    parser.add_argument(
        "--validate-only", action="store_true",
        help="report only schema problems (silent when valid)",
    )
    args = parser.parse_args(argv)

    if args.path is None:
        snapshot = demo_snapshot()
    else:
        try:
            with open(args.path, encoding="utf-8") as handle:
                snapshot = json.load(handle)
        except OSError as failure:
            sys.stderr.write(f"error: cannot read {args.path}: {failure}\n")
            return 2
        except json.JSONDecodeError as failure:
            sys.stderr.write(f"error: {args.path} is not JSON: {failure}\n")
            return 2

    problems = validate_telemetry(snapshot)
    if problems:
        for problem in problems:
            sys.stderr.write(f"schema: {problem}\n")
        return 1
    if args.validate_only:
        sys.stdout.write(f"valid: {args.path or '<demo>'}\n")
        return 0
    report = render_json(snapshot) if args.json else render_text(snapshot)
    sys.stdout.write(report + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
