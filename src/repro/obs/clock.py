"""The clock abstraction: the only place the framework reads real time.

Everything that needs a timestamp — span timing, per-node compute times,
timeliness scoring — asks a :class:`Clock` instead of calling
``time.perf_counter()`` or ``datetime.today()`` directly.  Production code
gets :class:`SystemClock`; tests and experiments get :class:`ManualClock`,
which only moves when told to, so every duration and freshness score is
reproducible to the digit.  Lint rule REP011 enforces the boundary: direct
wall-clock reads are forbidden outside ``repro.obs``.

The method names are deliberately not ``time()``/``now()``/``today()`` —
those are exactly the call shapes REP005/REP011 flag, and a clock call
must be distinguishable from a wall-clock read at the AST level.
"""

from __future__ import annotations

import datetime as _dt
import threading as _threading
import time as _time
from abc import ABC, abstractmethod

from repro.errors import TelemetryError

__all__ = ["Clock", "SystemClock", "ManualClock", "system_clock"]


class Clock(ABC):
    """Source of the current instant, in three granularities."""

    @abstractmethod
    def current_time(self) -> float:
        """Seconds on a monotonic axis — for measuring durations."""

    @abstractmethod
    def current_date(self) -> _dt.date:
        """The current calendar date — for timeliness scoring."""

    @abstractmethod
    def current_datetime(self) -> _dt.datetime:
        """The current wall-clock instant — for timestamps in exports."""

    @abstractmethod
    def wait(self, seconds: float) -> None:
        """Block until ``seconds`` have passed *on this clock*.

        The only sanctioned way to sleep anywhere in the framework (lint
        rule REP013): the system clock really sleeps, the manual clock
        just advances, so retry backoff is instantaneous in tests.
        """


class SystemClock(Clock):
    """The real clock; the framework's single point of wall-clock entry."""

    def current_time(self) -> float:
        """Seconds from :func:`time.perf_counter` (monotonic)."""
        return _time.perf_counter()

    def current_date(self) -> _dt.date:
        """The real calendar date."""
        return _dt.date.today()

    def current_datetime(self) -> _dt.datetime:
        """The real wall-clock instant."""
        return _dt.datetime.now()

    def wait(self, seconds: float) -> None:
        """Really sleep (the framework's single point of ``time.sleep``)."""
        if seconds < 0:
            raise TelemetryError(
                f"cannot wait {seconds} seconds: time is monotonic"
            )
        if seconds:
            _time.sleep(seconds)


class ManualClock(Clock):
    """A clock that moves only when ``advance()`` is called.

    Deterministic by construction: two runs issuing the same sequence of
    advances observe identical timestamps, so telemetry built on a manual
    clock can be asserted exactly in tests.
    """

    def __init__(
        self,
        start: float = 0.0,
        today: _dt.date | None = None,
    ) -> None:
        self._time = float(start)
        self._start_datetime = _dt.datetime.combine(
            today or _dt.date(2016, 3, 15), _dt.time.min
        )
        # Callers may wait on this clock from several threads; the
        # read-modify-write in advance() must not lose updates.
        self._lock = _threading.Lock()

    def current_time(self) -> float:
        """Seconds advanced so far (plus the configured start)."""
        with self._lock:
            return self._time

    def current_date(self) -> _dt.date:
        """The configured date, moved forward by whole advanced days."""
        return self.current_datetime().date()

    def current_datetime(self) -> _dt.datetime:
        """The configured start instant plus every advance."""
        return self._start_datetime + _dt.timedelta(seconds=self._time)

    def wait(self, seconds: float) -> None:
        """Advance instead of sleeping — waits are free and deterministic."""
        self.advance(seconds)

    def advance(self, seconds: float) -> float:
        """Move time forward; returns the new ``current_time()``."""
        if seconds < 0:
            raise TelemetryError(
                f"cannot advance a clock by {seconds} seconds: time is "
                "monotonic"
            )
        with self._lock:
            self._time += float(seconds)
            return self._time


#: The default clock shared by components not handed an explicit one.
system_clock = SystemClock()
