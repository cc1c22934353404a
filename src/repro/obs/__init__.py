"""repro.obs — the observability layer: clocks, metrics, traces.

The measurement substrate under every performance claim in this repo
(ROADMAP: "as fast as the hardware allows" must be *measured*).  Three
pieces, bundled by :class:`Telemetry`:

* :mod:`repro.obs.clock` — the only module allowed to read real time
  (REP011 enforces this); :class:`ManualClock` makes timings
  deterministic in tests.
* :mod:`repro.obs.metrics` — thread-safe counters, gauges, histograms
  (p50/p95/max) behind one :class:`MetricsRegistry`.
* :mod:`repro.obs.trace` — nested, attributed spans recording where a
  run's time went.

``python -m repro.obs.report`` validates and renders the exported
snapshot schema; see ``docs/OBSERVABILITY.md``.
"""

from repro.obs.clock import Clock, ManualClock, SystemClock, system_clock
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.telemetry import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    Telemetry,
    validate_telemetry,
)
from repro.obs.trace import Span, Tracer

__all__ = [
    "Clock",
    "Counter",
    "Gauge",
    "Histogram",
    "ManualClock",
    "MetricsRegistry",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "Span",
    "SystemClock",
    "Telemetry",
    "Tracer",
    "system_clock",
    "validate_telemetry",
]
