"""Span-based tracing: where a run's time actually went.

A :class:`Span` is one timed region with a name, attributes, and child
spans; a :class:`Tracer` hands them out as context managers and keeps the
finished roots.  ``Wrangler.run`` opens one root span per run and the
dataflow engine nests one child per recomputed node, so a single export
answers E6's question — *which* nodes recomputed after feedback, and for
how long — without print statements or profilers.

Spans close even when the body raises (the exception is recorded as the
``error`` attribute and re-raised), so a failing pipeline still exports a
complete trace.

The tracer is thread-compatible: the open-span stack is
**thread-local**, so spans opened on another thread nest under that
thread's context, never under this one's, and finished roots are
appended under a lock.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from typing import Any, Iterator

from repro.errors import TelemetryError
from repro.obs.clock import Clock, system_clock

__all__ = ["Span", "Tracer"]


class Span:
    """One timed region of a run, possibly with nested child regions."""

    def __init__(
        self, name: str, start: float, attributes: dict[str, Any]
    ) -> None:
        self.name = name
        self.start = start
        self.end: float | None = None
        self.attributes = attributes
        self.children: list["Span"] = []

    @property
    def duration(self) -> float:
        """Seconds between start and end (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach or overwrite one attribute."""
        self.attributes[key] = value

    def to_dict(self) -> dict[str, Any]:
        """The JSON-exported shape, children included."""
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }


class Tracer:
    """Issues spans, nests them by context, and keeps the finished roots."""

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock = clock or system_clock
        self.spans: list[Span] = []
        self._local = threading.local()
        self._roots_lock = threading.Lock()

    @property
    def _stack(self) -> list[Span]:
        """This thread's open-span stack (created empty on first use)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """A context manager timing one region; nests under any open span."""
        stack = self._stack
        opened = Span(name, self.clock.current_time(), dict(attributes))
        if stack:
            stack[-1].children.append(opened)
        stack.append(opened)
        try:
            yield opened
        finally:
            # Record-and-propagate: a failing body still closes the span,
            # with the in-flight exception noted as the `error` attribute.
            failure = sys.exc_info()[1]
            if failure is not None:
                opened.set_attribute("error", repr(failure))
            opened.end = self.clock.current_time()
            popped = stack.pop()
            if popped is not opened:
                raise TelemetryError(
                    f"span nesting corrupted: closed {opened.name!r} but "
                    f"{popped.name!r} was on top"
                )
            if not stack:
                with self._roots_lock:
                    self.spans.append(opened)

    @property
    def active(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = self._stack
        return stack[-1] if stack else None

    def find(self, name: str) -> list[Span]:
        """Every finished span (at any depth) with the given name."""

        def walk(span: Span) -> Iterator[Span]:
            if span.name == name:
                yield span
            for child in span.children:
                yield from walk(child)

        return [hit for root in self.spans for hit in walk(root)]

    def to_dicts(self) -> list[dict[str, Any]]:
        """Every finished root span as a plain dict tree."""
        return [span.to_dict() for span in self.spans]

    def reset(self) -> None:
        """Drop finished spans (open spans are unaffected)."""
        self.spans.clear()
