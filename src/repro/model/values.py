"""Annotated cell values: raw data + type + confidence + provenance.

Every cell flowing through the wrangler is a :class:`Value`, so uncertainty
and lineage are never lost between components — the "working data" of the
paper's Figure 1 is built from these.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.model.provenance import Provenance, Step
from repro.model.schema import DataType, infer_type

__all__ = ["Value", "MISSING"]


@dataclass(frozen=True)
class Value:
    """An immutable annotated cell value.

    ``raw`` is the Python-native payload (``None`` for missing), ``dtype``
    its inferred or declared type, ``confidence`` the probability that the
    value is correct, and ``provenance`` the tree of wrangling steps that
    produced it.
    """

    raw: Any
    dtype: DataType = DataType.STRING
    confidence: float = 1.0
    provenance: Provenance = Provenance.generated()

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(
                f"value confidence must be in [0,1], got {self.confidence}"
            )

    @classmethod
    def of(
        cls,
        raw: Any,
        provenance: Provenance | None = None,
        confidence: float = 1.0,
        dtype: DataType | None = None,
    ) -> "Value":
        """Build a value, inferring the dtype from ``raw`` when not given."""
        if dtype is None:
            dtype = infer_type(raw) if raw is not None else DataType.STRING
        if provenance is None:
            provenance = Provenance.generated()
        return cls(raw, dtype, confidence, provenance)

    @property
    def is_missing(self) -> bool:
        """True when the cell holds no data."""
        return self.raw is None or (
            isinstance(self.raw, str) and not self.raw.strip()
        )

    def with_confidence(self, confidence: float) -> "Value":
        """A copy of this value with a different confidence."""
        return replace(self, confidence=confidence)

    def with_raw(self, raw: Any, step: Step, ref: str) -> "Value":
        """A copy holding new payload, with provenance extended by ``step``."""
        return Value(
            raw,
            infer_type(raw) if raw is not None else self.dtype,
            self.confidence,
            self.provenance.derive(step, ref),
        )

    def __str__(self) -> str:
        return "" if self.raw is None else str(self.raw)


#: Canonical missing value (no payload, zero information content).
MISSING = Value(None, DataType.STRING, 1.0, Provenance.generated("missing"))
