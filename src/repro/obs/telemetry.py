"""The telemetry bundle and its exported schema.

:class:`Telemetry` is the trio every instrumented component shares — one
clock, one metrics registry, one tracer — so a single ``snapshot()`` is
the complete record of a run.  The snapshot shape is versioned and
validated by :func:`validate_telemetry`; the benchmarks emit it, the
``python -m repro.obs.report`` CLI renders it, and CI's ``bench-smoke``
target rejects a bench whose output drifts from it.

Snapshot schema (version 1)::

    {
      "schema": "repro.obs/telemetry",
      "version": 1,
      "metrics": {"counters": {...}, "gauges": {...},
                  "histograms": {name: {count,total,mean,p50,p95,max}}},
      "spans": [{name,start,end,duration,attributes,children:[...]}],
      "dataflow": {"nodes": {name: {runs,hits,cutoffs,invalidations,
                                    seconds,stage,clean,cost}}}
    }

``cutoffs`` counts the sweeps that marked the node clean without
running it (nothing it reads had changed).  ``cost`` is the static cost
model's predicted seconds for the node (or null before certification) —
a deterministic estimate, not a measurement.  Unknown per-node keys are
ignored, so snapshots written by older versions, whose nodes carried
more keys, keep validating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.obs.clock import Clock, ManualClock, SystemClock
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = [
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "Telemetry",
    "validate_telemetry",
]

SCHEMA_NAME = "repro.obs/telemetry"
SCHEMA_VERSION = 1


@dataclass
class Telemetry:
    """One run's clock, metrics, and tracer, snapshot together.

    Construct with a :class:`~repro.obs.clock.ManualClock` for
    deterministic timings; the default is the shared system clock.
    """

    clock: Clock = field(default_factory=SystemClock)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Tracer | None = None

    def __post_init__(self) -> None:
        if self.tracer is None:
            self.tracer = Tracer(self.clock)

    @classmethod
    def manual(cls, start: float = 0.0) -> "Telemetry":
        """A bundle on a manual clock — the deterministic test harness."""
        return cls(clock=ManualClock(start=start))

    def snapshot(
        self, dataflow: Mapping[str, Mapping[str, Any]] | None = None
    ) -> dict[str, Any]:
        """The schema-versioned export of everything recorded so far."""
        return {
            "schema": SCHEMA_NAME,
            "version": SCHEMA_VERSION,
            "metrics": self.metrics.snapshot(),
            "spans": self.tracer.to_dicts(),
            "dataflow": {"nodes": dict(dataflow or {})},
        }

    def reset(self) -> None:
        """Clear metrics and finished spans (the clock keeps running)."""
        self.metrics.reset()
        self.tracer.reset()


def _check_number(value: Any, where: str, problems: list[str]) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        problems.append(f"{where}: expected a number, got {value!r}")


def _check_span(span: Any, where: str, problems: list[str]) -> None:
    if not isinstance(span, Mapping):
        problems.append(f"{where}: expected a span object, got {span!r}")
        return
    if not isinstance(span.get("name"), str):
        problems.append(f"{where}.name: expected a string")
    _check_number(span.get("start"), f"{where}.start", problems)
    if span.get("end") is not None:
        _check_number(span.get("end"), f"{where}.end", problems)
    _check_number(span.get("duration"), f"{where}.duration", problems)
    if not isinstance(span.get("attributes"), Mapping):
        problems.append(f"{where}.attributes: expected an object")
    children = span.get("children")
    if not isinstance(children, list):
        problems.append(f"{where}.children: expected a list")
        return
    for index, child in enumerate(children):
        _check_span(child, f"{where}.children[{index}]", problems)


_HISTOGRAM_KEYS = ("count", "total", "mean", "p50", "p95", "max")
_NODE_COUNT_KEYS = ("runs", "hits", "invalidations")


def validate_telemetry(payload: Any) -> list[str]:
    """Problems that make ``payload`` fail the telemetry schema (or [])."""
    problems: list[str] = []
    if not isinstance(payload, Mapping):
        return [f"telemetry: expected an object, got {type(payload).__name__}"]
    if payload.get("schema") != SCHEMA_NAME:
        problems.append(
            f"schema: expected {SCHEMA_NAME!r}, got {payload.get('schema')!r}"
        )
    if payload.get("version") != SCHEMA_VERSION:
        problems.append(
            f"version: expected {SCHEMA_VERSION}, got {payload.get('version')!r}"
        )

    metrics = payload.get("metrics")
    if not isinstance(metrics, Mapping):
        problems.append("metrics: expected an object")
    else:
        for kind in ("counters", "gauges", "histograms"):
            block = metrics.get(kind)
            if not isinstance(block, Mapping):
                problems.append(f"metrics.{kind}: expected an object")
                continue
            for name, value in block.items():
                where = f"metrics.{kind}[{name}]"
                if kind == "histograms":
                    if not isinstance(value, Mapping):
                        problems.append(f"{where}: expected a summary object")
                        continue
                    for key in _HISTOGRAM_KEYS:
                        if key not in value:
                            problems.append(f"{where}.{key}: missing")
                        else:
                            _check_number(value[key], f"{where}.{key}", problems)
                else:
                    _check_number(value, where, problems)

    spans = payload.get("spans")
    if not isinstance(spans, list):
        problems.append("spans: expected a list")
    else:
        for index, span in enumerate(spans):
            _check_span(span, f"spans[{index}]", problems)

    dataflow = payload.get("dataflow")
    if not isinstance(dataflow, Mapping) or not isinstance(
        dataflow.get("nodes"), Mapping
    ):
        problems.append("dataflow.nodes: expected an object")
    else:
        for name, stats in dataflow["nodes"].items():
            where = f"dataflow.nodes[{name}]"
            if not isinstance(stats, Mapping):
                problems.append(f"{where}: expected a stats object")
                continue
            for key in _NODE_COUNT_KEYS:
                value = stats.get(key)
                if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                    problems.append(
                        f"{where}.{key}: expected a non-negative integer"
                    )
            _check_number(stats.get("seconds"), f"{where}.seconds", problems)
            if not isinstance(stats.get("clean"), bool):
                problems.append(f"{where}.clean: expected a boolean")
            stage = stats.get("stage")
            if stage is not None and not isinstance(stage, str):
                problems.append(f"{where}.stage: expected a string or null")
            cost = stats.get("cost")
            if cost is not None and (
                not isinstance(cost, (int, float)) or isinstance(cost, bool)
            ):
                problems.append(
                    f"{where}.cost: expected a number or null"
                )
    return problems
