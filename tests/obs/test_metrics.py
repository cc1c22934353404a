"""Tests for counters, gauges, histograms, and the registry."""

import threading

import pytest

from repro.errors import TelemetryError
from repro.obs import MetricsRegistry
from repro.obs.metrics import render_json, render_text


class TestCounter:
    def test_counts_up(self):
        registry = MetricsRegistry()
        counter = registry.counter("events")
        counter.increment()
        counter.increment(2)
        assert counter.value == 3

    def test_never_decreases(self):
        with pytest.raises(TelemetryError):
            MetricsRegistry().counter("events").increment(-1)


class TestGauge:
    def test_set_and_add(self):
        gauge = MetricsRegistry().gauge("level")
        gauge.set(10.0)
        gauge.add(-3.0)
        assert gauge.value == 7.0


class TestHistogram:
    def test_percentiles_nearest_rank(self):
        histogram = MetricsRegistry().histogram("latency")
        for value in range(1, 101):  # 1..100
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["p50"] == 50
        assert summary["p95"] == 95
        assert summary["max"] == 100

    def test_summary_shape(self):
        histogram = MetricsRegistry().histogram("latency")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["total"] == 10.0
        assert summary["mean"] == 2.5
        assert summary["p50"] == 2.0
        assert summary["max"] == 4.0

    def test_empty_summary_is_zeroes(self):
        summary = MetricsRegistry().histogram("latency").summary()
        assert summary["count"] == 0
        assert summary["p95"] == 0.0


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TelemetryError):
            registry.gauge("x")

    def test_snapshot_groups_by_kind(self):
        registry = MetricsRegistry()
        registry.counter("c").increment()
        registry.gauge("g").set(2.5)
        registry.histogram("h").observe(1.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 1.0}
        assert snapshot["gauges"] == {"g": 2.5}
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("c").increment()
        registry.reset()
        assert registry.names() == []

    def test_thread_safety_under_concurrent_updates(self):
        registry = MetricsRegistry()
        threads = 8
        per_thread = 2000
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait()
            for _ in range(per_thread):
                registry.counter("hits").increment()
                registry.histogram("seconds").observe(0.001)
                registry.gauge("level").set(1.0)

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert registry.counter("hits").value == threads * per_thread
        assert registry.histogram("seconds").count == threads * per_thread


class TestReporters:
    def test_text_lists_instruments(self):
        registry = MetricsRegistry()
        registry.counter("c").increment(2)
        registry.histogram("h").observe(0.5)
        text = render_text(registry.snapshot())
        assert "counter   c = 2" in text
        assert "histogram h n=1" in text

    def test_text_empty(self):
        assert "no metrics recorded" in render_text(
            MetricsRegistry().snapshot()
        )

    def test_json_round_trips(self):
        import json

        registry = MetricsRegistry()
        registry.gauge("g").set(1.5)
        payload = json.loads(render_json(registry.snapshot()))
        assert payload["gauges"]["g"] == 1.5
