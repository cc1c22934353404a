"""The source registry: the wrangler's catalog of available sources.

Volume, in this paper, is "scale either in terms of the size or number of
data sources" — so sources are first-class citizens with per-source
reliability posteriors (updated by feedback and quality analyses) and cost
accounting against the user context's budget.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import SourceError
from repro.model.annotations import AnnotationStore, Dimension
from repro.model.uncertainty import BetaReliability
from repro.sources.base import DataSource, DocumentSource, StructuredSource

__all__ = ["SourceRegistry"]


class SourceRegistry:
    """A named collection of sources with reliability and cost tracking."""

    def __init__(self) -> None:
        self._sources: dict[str, DataSource] = {}
        self._reliability: dict[str, BetaReliability] = {}

    def register(self, source: DataSource) -> DataSource:
        """Add a source; names must be unique across the registry."""
        if source.name in self._sources:
            raise SourceError(f"source {source.name!r} already registered")
        self._sources[source.name] = source
        self._reliability[source.name] = BetaReliability(2.0, 1.0)
        return source

    def replace(self, source: DataSource) -> DataSource:
        """Swap the source registered under ``source.name`` for ``source``.

        The reliability posterior carries over — wrapping a source (e.g.
        in a resilient wrapper) must not reset what feedback has learned
        about it.
        """
        if source.name not in self._sources:
            raise SourceError(f"no source registered under {source.name!r}")
        self._sources[source.name] = source
        return source

    def __len__(self) -> int:
        return len(self._sources)

    def __contains__(self, name: object) -> bool:
        return name in self._sources

    def __iter__(self) -> Iterator[DataSource]:
        return iter(self._sources.values())

    def get(self, name: str) -> DataSource:
        """The source registered under ``name``."""
        if name not in self._sources:
            raise SourceError(f"no source registered under {name!r}")
        return self._sources[name]

    def names(self) -> list[str]:
        """All registered source names, sorted."""
        return sorted(self._sources)

    def structured(self) -> list[StructuredSource]:
        """All registered structured sources."""
        return [
            source
            for source in self._sources.values()
            if isinstance(source, StructuredSource)
        ]

    def documents(self) -> list[DocumentSource]:
        """All registered document sources."""
        return [
            source
            for source in self._sources.values()
            if isinstance(source, DocumentSource)
        ]

    # -- reliability -------------------------------------------------------

    def reliability(self, name: str) -> BetaReliability:
        """The Beta-posterior reliability of source ``name``."""
        if name not in self._reliability:
            raise SourceError(f"no source registered under {name!r}")
        return self._reliability[name]

    def observe(self, name: str, success: bool, weight: float = 1.0) -> None:
        """Fold one correctness observation into a source's reliability."""
        self.reliability(name).update(success, weight)

    def reliability_scores(self) -> dict[str, float]:
        """Point reliability estimates for every source."""
        return {
            name: posterior.mean
            for name, posterior in self._reliability.items()
        }

    def trust(self, name: str, annotations: AnnotationStore) -> float:
        """How far source ``name`` is trusted: its reliability posterior
        blended half and half with its annotated accuracy (feedback and
        quality analyses; the posterior when nothing is annotated).
        Fusion weighs claims by it and source selection ranks by it."""
        posterior = self.reliability(name).mean
        annotated = annotations.score(
            f"source:{name}", Dimension.ACCURACY, default=posterior
        )
        return 0.5 * posterior + 0.5 * annotated

    # -- accounting ---------------------------------------------------------

    def total_cost(self) -> float:
        """Total access cost spent across all sources."""
        return sum(source.total_cost for source in self._sources.values())

    def cost_of(self, names: list[str]) -> float:
        """Projected cost of accessing each of ``names`` once."""
        return sum(self.get(name).metadata.cost_per_access for name in names)
