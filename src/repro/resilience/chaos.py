"""Deterministic chaos: seeded fault injection for source acquisition.

Baumer's ETL-grammar argument (PAPERS.md) applies to fault handling too:
a resilience claim is only reproducible if the *faults* are reproducible.
:class:`ChaosSource` wraps a structured source and injects failures from
a :class:`FaultPlan` — dead sources, fail-N-then-succeed, seeded
intermittent failure rates, latency spent through the injected
:class:`~repro.obs.Clock`, and malformed payloads built from the same
seeded :mod:`repro.datagen.corrupt` primitives the synthetic worlds use.
Two runs with the same plan observe byte-identical fault sequences, so
the chaos e2e tests and the E11 benchmark assert exact outcomes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.datagen.corrupt import maybe, misspell
from repro.errors import InjectedCrashError, SourceError, TransientSourceError
from repro.model.provenance import Step
from repro.model.records import Record, Table
from repro.obs.clock import Clock, system_clock
from repro.sources.base import StructuredSource

__all__ = ["ChaosSource", "FaultPlan"]


@dataclass(frozen=True)
class FaultPlan:
    """One source's scripted misbehaviour.

    * ``dead`` — every load raises a *permanent* :class:`SourceError`.
    * ``fail_first`` — the first N loads raise
      :class:`TransientSourceError`, then the source recovers (models a
      momentary outage; exercises retry-until-success).
    * ``failure_rate`` — each later load fails transiently with this
      probability, drawn from a generator seeded with ``seed`` and the
      source name.
    * ``latency`` — clock seconds injected per load through ``clock.wait``
      (free and deterministic under a manual clock).
    * ``corrupt_rate`` — per-record probability of a malformed payload:
      one string cell is misspelled via :func:`repro.datagen.corrupt.misspell`.
    * ``die_at_step`` — the Nth load raises
      :class:`~repro.errors.InjectedCrashError`, a scripted process death
      that (unlike every fault above) escapes the resilience engine and
      the wrangler's degradation handlers entirely; 0 never dies.  The
      crash-recovery suite uses this to kill a run mid-acquisition.
    """

    dead: bool = False
    fail_first: int = 0
    failure_rate: float = 0.0
    latency: float = 0.0
    corrupt_rate: float = 0.0
    die_at_step: int = 0
    seed: int = 2016

    def __post_init__(self) -> None:
        if self.fail_first < 0:
            raise SourceError("fail_first must be non-negative")
        if self.die_at_step < 0:
            raise SourceError("die_at_step must be non-negative")
        if not 0.0 <= self.failure_rate <= 1.0:
            raise SourceError("failure_rate is a probability in [0, 1]")
        if not 0.0 <= self.corrupt_rate <= 1.0:
            raise SourceError("corrupt_rate is a probability in [0, 1]")
        if self.latency < 0:
            raise SourceError("latency must be non-negative")


class ChaosSource(StructuredSource):
    """A structured source that misbehaves exactly as scripted.

    Wraps an inner :class:`StructuredSource`; each load consults the
    :class:`FaultPlan` in a fixed order (latency, dead, fail-first,
    intermittent, corruption) so the injected fault sequence is a pure
    function of the plan, the seed, and the load count.
    """

    def __init__(
        self,
        inner: StructuredSource,
        plan: FaultPlan,
        clock: Clock | None = None,
    ) -> None:
        super().__init__(inner.metadata)
        self._inner = inner
        self.plan = plan
        self._clock = clock or system_clock
        self._rng = random.Random(f"{plan.seed}:{inner.name}")
        self._loads = 0

    @property
    def loads(self) -> int:
        """How many loads (physical attempts) have been made so far."""
        return self._loads

    def delta_cursor(self) -> str | None:
        return self._inner.delta_cursor()

    def _content_token(self) -> object:
        return self._inner._content_token()

    def _rows(self) -> list[dict[str, Any]]:
        """The rows of one load: corruption is injected into the typed
        table (its cells record the corrupting step), so the raw rows
        are that table's."""
        return self._load().to_rows()

    def _load(self) -> Table:
        self._loads += 1
        if self.plan.die_at_step and self._loads == self.plan.die_at_step:
            raise InjectedCrashError(
                f"chaos: process death at load #{self._loads} of source "
                f"{self.name!r}"
            )
        if self.plan.latency:
            self._clock.wait(self.plan.latency)
        if self.plan.dead:
            raise SourceError(
                f"chaos: source {self.name!r} is dead (load #{self._loads})"
            )
        if self._loads <= self.plan.fail_first:
            raise TransientSourceError(
                f"chaos: source {self.name!r} failing transiently "
                f"(load #{self._loads} of the first {self.plan.fail_first})"
            )
        if self.plan.failure_rate and maybe(self._rng, self.plan.failure_rate):
            raise TransientSourceError(
                f"chaos: source {self.name!r} failed intermittently "
                f"(load #{self._loads}, rate {self.plan.failure_rate:g})"
            )
        table = self._inner._load()
        if self.plan.corrupt_rate:
            table = self._corrupt(table)
        return table

    def _corrupt(self, table: Table) -> Table:
        """Misspell one string cell per hit record — malformed payloads."""
        rng = self._rng

        def mangle(record: Record) -> Record:
            if not maybe(rng, self.plan.corrupt_rate):
                return record
            for attribute in record.cells:
                value = record.get(attribute)
                if (
                    value.is_missing
                    or not isinstance(value.raw, str)
                    or len(value.raw) < 3  # too short for misspell to mangle
                ):
                    continue
                return record.with_cells({
                    attribute: value.with_raw(
                        misspell(value.raw, rng), Step.SOURCE,
                        "chaos-corruption",
                    )
                })
            return record

        return table.map_records(mangle)
