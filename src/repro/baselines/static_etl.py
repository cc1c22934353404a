"""The baseline: a classical, hand-wired, context-blind ETL pipeline.

This is what the paper argues against: "ETL platforms ... tend to limit
their scope to supporting the specification of wrangling workflows by
expert developers" with "manual intervention at some stage".  The static
pipeline fetches *every* source, matches on attribute names only, keeps
every mapping, deduplicates with one fixed threshold, fuses by plain
majority, and ignores context, quality annotations, and feedback entirely.
Benchmarks E1/E2/E12 measure what that costs.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import PlanningError
from repro.extraction.induction import auto_induce
from repro.extraction.wrapper import Pages
from repro.fusion.fuse import EntityFuser
from repro.mapping.mapping import Mapping
from repro.matching.schema_matching import SchemaMatcher
from repro.model.records import Table
from repro.model.schema import Schema
from repro.resolution.comparison import default_comparator
from repro.resolution.er import EntityResolver
from repro.resolution.rules import ThresholdRule
from repro.sources.base import DataSource, DocumentSource, StructuredSource

__all__ = ["StaticETL"]


class StaticETL:
    """A fixed extract-transform-load workflow with no context awareness."""

    def __init__(
        self,
        target_schema: Schema,
        match_threshold: float = 0.5,
        er_threshold: float = 0.8,
    ) -> None:
        self.target_schema = target_schema
        self.match_threshold = match_threshold
        self.er_threshold = er_threshold
        self.sources: list[DataSource] = []
        self.manual_actions = 0  # proxy for developer effort (experiment E1)

    def add_source(self, source: DataSource) -> "StaticETL":
        """Wire in one source — a manual developer action."""
        self.sources.append(source)
        self.manual_actions += 1
        return self

    def run(self) -> Table:
        """Fetch everything, map everything, dedupe, majority-fuse."""
        if not self.sources:
            raise PlanningError("no sources wired into the ETL workflow")
        matcher = SchemaMatcher(
            context=None,  # no data context: name evidence only
            channels=("name",),
            threshold=self.match_threshold,
        )
        translated = Table("translated", self.target_schema)
        for source in self.sources:
            if isinstance(source, StructuredSource):
                table = source.fetch().infer_schema()
            elif isinstance(source, DocumentSource):
                documents = Pages.of(source.fetch())
                wrapper = auto_induce(documents, source=source.name)
                table = wrapper.extract(documents).infer_schema()
            else:
                raise PlanningError(
                    f"unsupported source type: {type(source).__name__}"
                )
            correspondences = matcher.match(table, self.target_schema)
            mapping = Mapping.from_correspondences(
                source.name, self.target_schema, correspondences
            )
            for record in mapping.apply(table):
                translated.append(record)

        resolver = EntityResolver(
            comparator=default_comparator(self.target_schema),
            rule=ThresholdRule(self.er_threshold),
        )
        resolution = resolver.resolve(translated)
        fuser = EntityFuser(self.target_schema, default_strategy="majority")
        return fuser.fuse(resolution.clusters, name="etl-output")
