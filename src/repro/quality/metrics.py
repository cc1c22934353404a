"""Quality metrics: scoring tables on the user context's dimensions.

The Quality box of Figure 1: analyses "may apply to individual data
sources, the results of different extractions and components of relevance
to integration".  :class:`QualityAnalyser` measures a table on the shared
dimensions — completeness, accuracy against master data, timeliness from a
date column, consistency from type agreement and constraint violations,
relevance against the user scope — and writes the findings into the
annotation store so downstream decisions (mapping selection, source
selection, fusion reliabilities) can use them.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field

from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.matching.similarity import name_similarity
from repro.model.annotations import AnnotationStore, Dimension, QualityAnnotation
from repro.model.records import Table
from repro.model.schema import infer_types
from repro.obs.clock import Clock, system_clock
from repro.quality.constraints import Constraint, violations as constraint_violations

__all__ = ["QualityReport", "QualityAnalyser"]


@dataclass
class QualityReport:
    """Scores per dimension for one table, with supporting detail."""

    target: str
    scores: dict[Dimension, float]
    details: dict[str, object] = field(default_factory=dict)

    def score(self, dimension: Dimension, default: float = 0.5) -> float:
        """The table's score on one dimension."""
        return self.scores.get(dimension, default)

    def summary(self) -> str:
        """One line per dimension."""
        return ", ".join(
            f"{dim.value}={score:.2f}"
            for dim, score in sorted(self.scores.items(), key=lambda kv: kv[0].value)
        )


class QualityAnalyser:
    """Measures tables and records the findings as annotations."""

    def __init__(
        self,
        context: DataContext | None = None,
        annotations: AnnotationStore | None = None,
        today: _dt.date | None = None,
        staleness_horizon_days: int = 30,
        clock: Clock | None = None,
    ) -> None:
        self.context = context
        self.annotations = annotations if annotations is not None else AnnotationStore()
        # Time enters through an explicit, injectable clock: pin `today`
        # directly, or hand in a ManualClock, and every timeliness score
        # is reproducible.  The clock is read once, at the construction
        # boundary.
        self.today = today or (clock or system_clock).current_date()
        self.staleness_horizon_days = staleness_horizon_days

    # -- dimension measurements -----------------------------------------

    def completeness(self, table: Table) -> float:
        """Populated share of schema cells."""
        return table.completeness()

    def accuracy_against_master(
        self, table: Table, master_key: str, join_attribute: str
    ) -> float | None:
        """Exact-match accuracy of overlapping cells against master data.

        Joins on ``join_attribute`` and compares every attribute the two
        schemas share.  Returns ``None`` when the join is empty (no
        evidence, not zero accuracy).
        """
        if self.context is None or master_key not in self.context.master_data:
            return None
        master = self.context.master(master_key)
        if join_attribute not in master.schema or join_attribute not in table.schema:
            return None
        master_by_key = {
            record.raw(join_attribute): record for record in master
        }
        from repro.model.schema import DataType

        shared = [
            name
            for name in table.schema.names
            if name in master.schema and name != join_attribute
            and not name.startswith("_")
            # URLs are per-source addresses, not facts: every honest source
            # "disagrees" with the master on them.
            and table.schema[name].dtype is not DataType.URL
        ]
        checked = 0.0
        correct = 0.0
        for record in table:
            key = record.raw(join_attribute)
            if key not in master_by_key:
                continue
            trusted = master_by_key[key]
            for name in shared:
                value = record.get(name)
                expected = trusted.get(name)
                if value.is_missing or expected.is_missing:
                    continue
                # Required attributes are the payload the user came for
                # (the price, in price intelligence): weight them double.
                attribute = table.schema[name]
                weight = 2.0 if attribute.required else 1.0
                checked += weight
                if str(value.raw) == str(expected.raw):
                    correct += weight
        if checked == 0:
            return None
        return correct / checked

    def timeliness(self, table: Table, date_attribute: str) -> float | None:
        """Freshness of the table from a last-updated column.

        Each record scores ``max(0, 1 - age/horizon)``; records without a
        parsable date score 0.5 (unknown age).  Returns ``None`` when the
        attribute is absent.
        """
        if date_attribute not in table.schema:
            return None
        if not len(table):
            return 1.0
        scores = []
        for value in table.column(date_attribute):
            raw = value.raw
            if isinstance(raw, _dt.datetime):
                raw = raw.date()
            if isinstance(raw, _dt.date):
                age = (self.today - raw).days
                scores.append(max(0.0, 1.0 - age / self.staleness_horizon_days))
            else:
                scores.append(0.5)
        return sum(scores) / len(scores)

    def consistency(
        self, table: Table, constraints: list[Constraint] | None = None
    ) -> float:
        """Type agreement blended with constraint satisfaction.

        A column's type agreement is the share of its non-missing cells
        that have its most frequent inferred type (1.0 for an empty
        column); the type score is their mean over the non-evaluation
        columns.
        """
        agreements = []
        for name in table.schema.names:
            if name.startswith("_"):
                continue
            counts = infer_types(
                value.raw for value in table.column(name)
                if not value.is_missing
            )[1]
            populated = sum(counts.values())
            agreements.append(
                max(counts.values()) / populated if populated else 1.0
            )
        type_score = (
            sum(agreements) / len(agreements) if agreements else 1.0
        )
        if not constraints or not len(table):
            return type_score
        violating = constraint_violations(table, constraints)
        violating_records = {
            record.rid for violation in violating for record in violation.records
        }
        constraint_score = 1.0 - len(violating_records) / len(table)
        return 0.5 * type_score + 0.5 * constraint_score

    def relevance(self, table: Table, user: UserContext) -> float:
        """Share of records inside the user's scope, times schema fit."""
        if len(table):
            in_scope = sum(1 for record in table if user.in_scope(record))
            scope_score = in_scope / len(table)
        else:
            scope_score = 1.0
        target_names = user.target_schema.names
        if target_names:
            fit = sum(
                max(
                    (name_similarity(a, b) for b in table.schema.names),
                    default=0.0,
                )
                for a in target_names
            ) / len(target_names)
        else:
            fit = 1.0
        return 0.7 * scope_score + 0.3 * fit

    # -- the full report -----------------------------------------------------

    def analyse(
        self,
        table: Table,
        user: UserContext | None = None,
        master_key: str | None = None,
        join_attribute: str | None = None,
        date_attribute: str | None = None,
        constraints: list[Constraint] | None = None,
        annotate_as: str | None = None,
    ) -> QualityReport:
        """Measure every applicable dimension and annotate the findings."""
        scores: dict[Dimension, float] = {}
        details: dict[str, object] = {}

        scores[Dimension.COMPLETENESS] = self.completeness(table)
        scores[Dimension.CONSISTENCY] = self.consistency(table, constraints)

        if master_key is not None and join_attribute is not None:
            accuracy = self.accuracy_against_master(
                table, master_key, join_attribute
            )
            if accuracy is not None:
                scores[Dimension.ACCURACY] = accuracy
                details["accuracy_basis"] = f"master:{master_key}"
        if date_attribute is not None:
            timeliness = self.timeliness(table, date_attribute)
            if timeliness is not None:
                scores[Dimension.TIMELINESS] = timeliness
        if user is not None:
            scores[Dimension.RELEVANCE] = self.relevance(table, user)

        report = QualityReport(
            annotate_as or f"table:{table.name}", scores, details
        )
        self.annotate(report)
        return report

    def annotate(self, report: QualityReport) -> None:
        """File ``report``'s scores as annotations on its target — what
        :meth:`analyse` files, so a caller holding a report of an
        unchanged table can file it again without re-measuring."""
        for dimension, score in report.scores.items():
            self.annotations.add(
                QualityAnnotation(
                    report.target, dimension, max(0.0, min(1.0, score)),
                    confidence=0.8, origin="quality-analysis",
                )
            )
