"""Tests for span-based tracing."""

import json

import pytest

from repro.obs import ManualClock, MetricsRegistry, Tracer
from repro.obs.trace import MAX_ROOT_SPANS


def manual_tracer():
    clock = ManualClock()
    return Tracer(clock), clock


class TestSpans:
    def test_span_times_its_region(self):
        tracer, clock = manual_tracer()
        with tracer.span("work"):
            clock.advance(0.5)
        assert len(tracer.spans) == 1
        assert tracer.spans[0].duration == 0.5

    def test_nesting(self):
        tracer, clock = manual_tracer()
        with tracer.span("outer"):
            clock.advance(0.1)
            with tracer.span("inner"):
                clock.advance(0.2)
            with tracer.span("sibling"):
                clock.advance(0.3)
        assert [root.name for root in tracer.spans] == ["outer"]
        outer = tracer.spans[0]
        assert [child.name for child in outer.children] == [
            "inner", "sibling",
        ]
        assert outer.duration == pytest.approx(0.6)
        assert outer.children[0].duration == pytest.approx(0.2)

    def test_attributes(self):
        tracer, _ = manual_tracer()
        with tracer.span("work", stage="fusion") as span:
            span.set_attribute("rows", 42)
        exported = tracer.spans[0].to_dict()
        assert exported["attributes"] == {"stage": "fusion", "rows": 42}

    def test_active_span(self):
        tracer, _ = manual_tracer()
        assert tracer.active is None
        with tracer.span("outer"):
            with tracer.span("inner"):
                assert tracer.active.name == "inner"
            assert tracer.active.name == "outer"
        assert tracer.active is None

    def test_exception_closes_span_and_records_error(self):
        tracer, clock = manual_tracer()
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                clock.advance(0.1)
                raise ValueError("boom")
        span = tracer.spans[0]
        assert span.end is not None
        assert span.duration == pytest.approx(0.1)
        assert "boom" in span.attributes["error"]

    def test_find_searches_all_depths(self):
        tracer, _ = manual_tracer()
        with tracer.span("run"):
            with tracer.span("node", name_attr="a"):
                pass
            with tracer.span("node", name_attr="b"):
                pass
        assert len(tracer.find("node")) == 2
        assert len(tracer.find("run")) == 1
        assert tracer.find("missing") == []

    def test_to_dicts(self):
        tracer, clock = manual_tracer()
        with tracer.span("run", label="x"):
            clock.advance(1.0)
        payload = json.loads(json.dumps(tracer.to_dicts()))
        assert payload[0]["name"] == "run"
        assert payload[0]["duration"] == 1.0
        assert payload[0]["children"] == []

    def test_reset_drops_finished_spans(self):
        tracer, _ = manual_tracer()
        with tracer.span("work"):
            pass
        tracer.reset()
        assert tracer.spans == []

    def test_open_span_duration_is_zero(self):
        tracer, clock = manual_tracer()
        with tracer.span("work") as span:
            clock.advance(5.0)
            assert span.duration == 0.0
        assert span.duration == 5.0


class TestRetention:
    def test_the_oldest_roots_are_evicted_and_counted(self):
        metrics = MetricsRegistry()
        tracer = Tracer(ManualClock(), metrics)
        for index in range(MAX_ROOT_SPANS + 5):
            with tracer.span("run", index=index):
                with tracer.span("node"):
                    pass
        assert len(tracer.spans) == MAX_ROOT_SPANS
        assert [root.attributes["index"] for root in tracer.spans] == list(
            range(5, MAX_ROOT_SPANS + 5)
        )
        assert len(tracer.find("node")) == MAX_ROOT_SPANS
        assert metrics.counter("obs.spans_dropped").value == 5

    def test_a_tracer_without_metrics_still_evicts(self):
        tracer, _ = manual_tracer()
        for __ in range(MAX_ROOT_SPANS + 1):
            with tracer.span("run"):
                pass
        assert len(tracer.spans) == MAX_ROOT_SPANS
