"""Metrics: counters, gauges, and histograms behind one registry.

The measurement substrate every perf claim in this repo rests on.  Three
instrument kinds, chosen for the questions the experiments ask:

* **Counter** — monotone event counts (cache hits, tuple accesses,
  feedback items).  E6's "nodes recomputed per feedback" is a counter.
* **Gauge** — last-written level (budget remaining, registry size).
* **Histogram** — distributions of observations with p50/p95/max
  (per-node compute seconds, accesses per query).

All instruments are thread-safe: the registry serialises creation and
each instrument serialises its own updates, so feedback workers and
concurrent pulls can record without corrupting totals.  Snapshots are
plain dicts; :func:`render_text` / :func:`render_json` are pure
functions from data to a string, like
:func:`repro.analysis.diagnostics.render_text` — callers own all I/O.
"""

from __future__ import annotations

import json
import threading
from typing import Mapping

from repro.errors import TelemetryError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_text",
    "render_json",
]


class Counter:
    """A monotonically increasing event count."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def increment(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative: counters never go down)."""
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current count."""
        with self._lock:
            return self._value


class Gauge:
    """A level that can move both ways; reports its last value."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Record the current level."""
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        """Shift the level by ``delta`` (negative allowed)."""
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        """The last recorded level."""
        with self._lock:
            return self._value


class Histogram:
    """A distribution of observations with nearest-rank percentiles."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: list[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self._values.append(float(value))

    @property
    def count(self) -> int:
        """How many observations have been recorded."""
        with self._lock:
            return len(self._values)

    def summary(self) -> dict[str, float]:
        """count/total/mean/p50/p95/max — the exported shape."""
        with self._lock:
            values = list(self._values)
        if not values:
            return {
                "count": 0, "total": 0.0, "mean": 0.0,
                "p50": 0.0, "p95": 0.0, "max": 0.0,
            }
        ordered = sorted(values)

        def rank(q: float) -> float:
            position = max(1, -(-len(ordered) * q // 100))
            return ordered[int(position) - 1]

        return {
            "count": len(values),
            "total": sum(values),
            "mean": sum(values) / len(values),
            "p50": rank(50),
            "p95": rank(95),
            "max": ordered[-1],
        }


class MetricsRegistry:
    """Get-or-create home for every instrument, keyed by name.

    A name is bound to one instrument kind for the registry's lifetime;
    asking for the same name as a different kind is a programming error
    and raises, rather than silently splitting the series.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind: type):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = kind(name)
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise TelemetryError(
                    f"metric {name!r} is a {type(instrument).__name__}, "
                    f"not a {kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first use)."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first use)."""
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """The histogram named ``name`` (created on first use)."""
        return self._get_or_create(name, Histogram)

    def names(self) -> list[str]:
        """Every registered instrument name, sorted."""
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> dict[str, dict[str, object]]:
        """The exported shape: one sub-dict per instrument kind."""
        with self._lock:
            instruments = dict(self._instruments)
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict[str, float]] = {}
        for name in sorted(instruments):
            instrument = instruments[name]
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument.value
            else:
                histograms[name] = instrument.summary()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def reset(self) -> None:
        """Drop every instrument (a fresh measurement window)."""
        with self._lock:
            self._instruments.clear()


def render_text(snapshot: Mapping[str, Mapping[str, object]]) -> str:
    """One instrument per line, grouped by kind, stable order."""
    lines: list[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        lines.append(f"counter   {name} = {value:g}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        lines.append(f"gauge     {name} = {value:g}")
    for name, summary in sorted(snapshot.get("histograms", {}).items()):
        lines.append(
            f"histogram {name} n={summary['count']} "
            f"p50={summary['p50']:g} p95={summary['p95']:g} "
            f"max={summary['max']:g}"
        )
    if not lines:
        lines.append("no metrics recorded")
    return "\n".join(lines)


def render_json(snapshot: Mapping[str, Mapping[str, object]]) -> str:
    """The machine form (stable key order)."""
    return json.dumps(snapshot, indent=2, sort_keys=True)
