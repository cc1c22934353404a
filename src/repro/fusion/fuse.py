"""Entity fusion: one clean record per resolved entity.

Takes the clusters produced by entity resolution and reconciles each
attribute with a conflict-resolution strategy, producing the *Wrangled
Data* of Figure 1 — every fused cell carries a ``FUSION`` provenance node
over the contributing claims and a confidence from the vote it won.
"""

from __future__ import annotations

import datetime as _dt
from collections import Counter
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.fusion.strategies import Candidate, resolve
from repro.model.provenance import Provenance, Step
from repro.model.records import Record, Table
from repro.model.schema import DataType, Schema
from repro.model.values import MISSING, Value
from repro.resolution.er import EntityCluster

if TYPE_CHECKING:  # typing only
    from repro.obs import MetricsRegistry

__all__ = ["EntityFuser"]


class EntityFuser:
    """Fuses entity clusters into a single table under a target schema.

    ``default_strategy`` applies unless ``strategy_overrides`` names a
    different one for an attribute; ``reliabilities`` are per-source trust
    scores (from the registry's posteriors or a truth-discovery run);
    ``recency_attribute`` names the DATE attribute used to compute claim
    freshness for the ``recent`` strategy.  ``precedence`` lists sources
    best first: a cluster's claims are weighed in that order, so a tie
    goes to the earlier source (records of unlisted sources follow, in
    cluster order).
    """

    def __init__(
        self,
        target_schema: Schema,
        reliabilities: Mapping[str, float] | None = None,
        default_strategy: str = "weighted",
        strategy_overrides: Mapping[str, str] | None = None,
        recency_attribute: str | None = None,
        precedence: Sequence[str] = (),
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.target_schema = target_schema
        self.reliabilities = dict(reliabilities or {})
        self.default_strategy = default_strategy
        self.strategy_overrides = dict(strategy_overrides or {})
        self.recency_attribute = recency_attribute
        self.precedence = {source: i for i, source in enumerate(precedence)}
        #: Optional registry for the ``fusion.clusters_reused`` counter.
        self.metrics = metrics
        #: Per cluster id of the last :meth:`fuse`: the records in
        #: precedence order and the record they fused to.
        self._fused: dict[str, tuple[list[Record], Record]] = {}

    def _ordered(self, records: Sequence[Record]) -> list[Record]:
        """``records`` by source precedence, stably."""
        last = len(self.precedence)
        return sorted(
            records, key=lambda record: self.precedence.get(record.source, last)
        )

    def _strategy_for(self, attribute: str) -> str:
        return self.strategy_overrides.get(attribute, self.default_strategy)

    def _recencies(self, records: Sequence[Record]) -> list[float]:
        """Per-record freshness in [0, 1] from the recency attribute."""
        if self.recency_attribute is None:
            return [0.5] * len(records)
        dates: list[_dt.date | None] = []
        for record in records:
            value = record.get(self.recency_attribute)
            raw = value.raw
            if isinstance(raw, _dt.datetime):
                dates.append(raw.date())
            elif isinstance(raw, _dt.date):
                dates.append(raw)
            else:
                dates.append(None)
        known = [d for d in dates if d is not None]
        if not known:
            return [0.5] * len(records)
        newest, oldest = max(known), min(known)
        span = max((newest - oldest).days, 1)
        return [
            0.5 if d is None else 1.0 - (newest - d).days / (span * 2)
            for d in dates
        ]

    def _candidates(
        self, records: Sequence[Record], recencies: Sequence[float],
        attribute: str,
    ) -> list[Candidate]:
        """Every non-missing claim for ``attribute`` among ``records``."""
        return [
            Candidate(
                value,
                record.source,
                self.reliabilities.get(record.source, 0.5),
                recency,
            )
            for record, recency in zip(records, recencies)
            for value in (record.get(attribute),)
            if not value.is_missing
        ]

    def fuse_cluster(self, cluster: EntityCluster) -> Record:
        """Fuse one cluster into a single record."""
        return self._fuse_ordered(
            cluster.cluster_id, self._ordered(cluster.records)
        )

    def _fuse_ordered(self, cluster_id: str, records: list[Record]) -> Record:
        """Fuse one cluster's records, already in precedence order."""
        recencies = self._recencies(records)
        cells: dict[str, Value] = {}
        for attribute in self.target_schema:
            candidates = self._candidates(records, recencies, attribute.name)
            if not candidates:
                cells[attribute.name] = MISSING
                continue
            choice = resolve(self._strategy_for(attribute.name), candidates)
            # Provenance covers the supporting claims only: feedback on the
            # fused value then credits/blames exactly the sources that put
            # it there.
            supporting = [
                c for c in candidates if c.source in choice.supporters
            ] or list(candidates)
            provenance = Provenance.combine(
                Step.FUSION,
                f"{self._strategy_for(attribute.name)}:{cluster_id}",
                tuple(c.value.provenance for c in supporting),
            )
            cells[attribute.name] = Value(
                choice.value.raw,
                attribute.dtype,
                min(1.0, choice.confidence),
                provenance,
            )
        # Evaluation-only lineage: carry the majority truth id, if present.
        truth_ids = [
            record.raw("_truth")
            for record in records
            if record.raw("_truth") is not None
        ]
        if truth_ids:
            majority_truth = Counter(truth_ids).most_common(1)[0][0]
            cells["_truth"] = Value.of(majority_truth)
        return Record.of(cells, source="fused", rid=cluster_id)

    def _settings(self) -> tuple:
        """Everything besides a cluster's ordered records that its fused
        record depends on."""
        return (
            self.target_schema,
            self.default_strategy,
            self.strategy_overrides,
            self.recency_attribute,
            self.reliabilities,
        )

    def fuse(
        self,
        clusters: Sequence[EntityCluster],
        name: str = "wrangled",
        previous: "EntityFuser | None" = None,
    ) -> Table:
        """Fuse all clusters into the wrangled table.

        ``previous`` is the fuser of an earlier pass.  When it had the
        same schema, strategies, recency attribute and source
        reliabilities, a cluster it fused from the very same record
        objects, in the same precedence order, keeps the record it fused:
        fusion reads nothing else, so the record is the one fusing again
        would build.  This fuser remembers the clusters of this call only.
        Kept records are counted on ``fusion.clusters_reused``.
        """
        same_settings = (
            previous is not None and previous._settings() == self._settings()
        )
        reusable = previous._fused if same_settings else {}
        self._fused = {}
        table = Table(name, self.target_schema)
        reused = 0
        for cluster in clusters:
            records = self._ordered(cluster.records)
            kept = reusable.get(cluster.cluster_id)
            if (
                kept is not None
                and len(kept[0]) == len(records)
                and all(a is b for a, b in zip(kept[0], records))
            ):
                fused = kept[1]
                reused += 1
            else:
                fused = self._fuse_ordered(cluster.cluster_id, records)
            self._fused[cluster.cluster_id] = (records, fused)
            table.append(fused)
        if self.metrics is not None:
            self.metrics.counter("fusion.clusters_reused").increment(reused)
        return table

    def apply_verdicts(
        self,
        fused: Table,
        clusters: Sequence[EntityCluster],
        rejections: Mapping[tuple[str, str], Sequence[object]],
    ) -> Table:
        """Fold consolidated value feedback into the fused data itself.

        ``rejections`` maps each rejected ``(entity id, attribute)`` cell
        to the corrections its judges supplied
        (:meth:`~repro.feedback.store.FeedbackStore.rejected_values`).  A
        rejected cell takes the most common correction when one was
        supplied; otherwise the rejected value's claims are excluded and
        the attribute is re-fused ("weighted") from the remaining ones.

        Entity ids are the fused records' ids, and they are
        content-derived (:func:`~repro.resolution.er.stable_cluster_id`):
        value feedback dirties ``select`` and re-resolves when it changes
        the selected sources, but an entity whose membership is unchanged
        keeps its id through the re-resolve, so a verdict filed against
        it still binds.
        """
        if not rejections:
            return fused
        by_entity: dict[str, dict[str, Sequence[object]]] = {}
        for (entity, attribute), corrections in rejections.items():
            by_entity.setdefault(entity, {})[attribute] = corrections
        members = {c.cluster_id: self._ordered(c.records) for c in clusters}

        def fix(record: Record) -> Record:
            updates = {}
            for attribute, corrections in by_entity.get(record.rid, {}).items():
                if attribute not in record.cells:
                    continue
                current = record.get(attribute)
                if current.is_missing:
                    continue
                if corrections:
                    best = Counter(corrections).most_common(1)[0][0]
                    updates[attribute] = current.with_raw(
                        best, Step.FEEDBACK, "user-correction"
                    )
                    continue
                records = members.get(record.rid, ())
                alternatives = [
                    candidate
                    for candidate in self._candidates(
                        records, self._recencies(records), attribute
                    )
                    if candidate.value.raw != current.raw
                ]
                if alternatives:
                    choice = resolve("weighted", alternatives)
                    updates[attribute] = current.with_raw(
                        choice.value.raw, Step.FEEDBACK, "rejected-value"
                    )
            return record.with_cells(updates) if updates else record

        return fused.map_records(fix)
