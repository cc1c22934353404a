"""The degradation ledger: what acquisition actually went through.

Pay-as-you-go wrangling over flaky sources must *complete and account*
rather than crash: every physical attempt (probe or fetch), its outcome,
the backoff spent, the breaker state, and each source's final disposition
are recorded here.  ``Wrangler.run`` surfaces the export as
``WrangleResult.degradation`` so a caller can see exactly which sources
degraded and how hard the pipeline worked to keep them.

The export is a plain, deterministically ordered dict — two runs with the
same seeds and the same manual clock produce byte-identical JSON.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.errors import DegradedRunError

__all__ = [
    "AttemptRecord",
    "DegradationLedger",
    "SourceDisposition",
    "DISPOSITION_OK",
    "DISPOSITION_RECOVERED",
    "DISPOSITION_FAILED",
    "DISPOSITION_SHORT_CIRCUITED",
]

#: Final dispositions a source can settle on.
DISPOSITION_OK = "ok"
DISPOSITION_RECOVERED = "recovered"
DISPOSITION_FAILED = "failed"
DISPOSITION_SHORT_CIRCUITED = "short-circuited"

#: Dispositions that count as surviving the run.
_SURVIVING = {DISPOSITION_OK, DISPOSITION_RECOVERED}


@dataclass(frozen=True)
class AttemptRecord:
    """One physical attempt against one source."""

    op: str  # "fetch" | "probe"
    attempt: int  # 1-based attempt number within the call
    outcome: str  # "success" | "transient-failure" | "permanent-failure"
    #              | "short-circuit" | "deadline"
    error: str = ""
    backoff: float = 0.0  # clock seconds waited *after* this attempt

    def to_dict(self) -> dict[str, object]:
        """The exported shape (stable key order)."""
        return {
            "op": self.op,
            "attempt": self.attempt,
            "outcome": self.outcome,
            "error": self.error,
            "backoff": round(self.backoff, 6),
        }


@dataclass
class SourceDisposition:
    """Everything the ledger knows about one source."""

    name: str
    attempts: list[AttemptRecord] = field(default_factory=list)
    breaker_state: str = "closed"
    disposition: str = DISPOSITION_OK

    @property
    def survived(self) -> bool:
        """Whether the source ultimately delivered data this run."""
        return self.disposition in _SURVIVING

    def to_dict(self) -> dict[str, object]:
        """The exported shape (stable key order)."""
        return {
            "attempts": [record.to_dict() for record in self.attempts],
            "breaker_state": self.breaker_state,
            "disposition": self.disposition,
            "survived": self.survived,
        }


class DegradationLedger:
    """Per-source attempt/outcome accounting for one wrangler's lifetime.

    Written by the :class:`~repro.resilience.wrap` wrappers, read by
    ``Wrangler`` for quorum enforcement and result reporting.
    """

    def __init__(self) -> None:
        self._sources: dict[str, SourceDisposition] = {}
        # Sources may be acquired from several threads and the entry
        # map is shared — guard its mutations.
        self._lock = threading.Lock()

    def _entry(self, name: str) -> SourceDisposition:
        with self._lock:
            entry = self._sources.get(name)
            if entry is None:
                entry = SourceDisposition(name)
                self._sources[name] = entry
            return entry

    def record_attempt(self, name: str, record: AttemptRecord) -> None:
        """Append one physical attempt's record for ``name``."""
        self._entry(name).attempts.append(record)

    def settle(self, name: str, disposition: str, breaker_state: str) -> None:
        """Set a source's latest disposition and breaker state."""
        entry = self._entry(name)
        entry.disposition = disposition
        entry.breaker_state = breaker_state

    def disposition(self, name: str) -> SourceDisposition | None:
        """The entry for ``name``, or ``None`` if never touched."""
        return self._sources.get(name)

    def names(self) -> list[str]:
        """Every source the ledger has seen, sorted."""
        return sorted(self._sources)

    def survivors(self, names: list[str]) -> list[str]:
        """The subset of ``names`` that survived (untouched = survived)."""
        kept = []
        for name in names:
            entry = self._sources.get(name)
            if entry is None or entry.survived:
                kept.append(name)
        return kept

    def dead(self, names: list[str]) -> list[str]:
        """The subset of ``names`` that did not survive."""
        surviving = set(self.survivors(names))
        return [name for name in names if name not in surviving]

    def require_quorum(self, names: list[str], quorum: float) -> None:
        """Raise :class:`DegradedRunError` when too few of ``names``
        survived acquisition.

        ``quorum`` is a fraction of ``names`` when below 1, an absolute
        count otherwise; 0 (or less) never raises.
        """
        if quorum <= 0:
            return
        survivors = self.survivors(names)
        required = quorum if quorum >= 1 else quorum * len(names)
        if len(survivors) < required:
            dead = self.dead(names)
            raise DegradedRunError(
                f"only {len(survivors)}/{len(names)} sources survived "
                f"acquisition (quorum {quorum:g}); dead: "
                f"{', '.join(dead)}",
                dead=tuple(dead),
            )

    def clear(self) -> None:
        """Forget everything (a fresh measurement window)."""
        self._sources.clear()

    def export(self) -> dict[str, dict[str, object]]:
        """The full ledger as a deterministically ordered plain dict."""
        return {
            name: self._sources[name].to_dict()
            for name in sorted(self._sources)
        }
