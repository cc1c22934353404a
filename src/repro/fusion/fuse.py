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

from repro.fusion.strategies import AttributeClaims, resolve
from repro.model.provenance import Provenance, Step
from repro.model.records import Record, Table
from repro.model.schema import DataType, Schema
from repro.model.values import MISSING, Value
from repro.resolution.er import EntityCluster

if TYPE_CHECKING:  # typing only
    from repro.obs import MetricsRegistry

__all__ = ["EntityFuser", "REFUSE_REASONS"]

#: Why :meth:`EntityFuser.fuse` fused a cluster its ``previous`` fuser
#: had fused: the fusion settings (schema, strategies, recency attribute,
#: source reliabilities) moved; the cluster's record objects moved (a
#: record joined or left, or was re-translated — a new cluster id counts
#: here too); or only their precedence order moved.
REFUSE_REASONS = ("settings", "membership", "precedence")


def _refuse_reason(
    same_settings: bool,
    kept: "tuple[list[Record], Record] | None",
    records: Sequence[Record],
) -> str:
    """The :data:`REFUSE_REASONS` entry for a cluster fused again."""
    if not same_settings:
        return "settings"
    if (
        kept is not None
        and len(kept[0]) == len(records)
        and {id(record) for record in kept[0]}
        == {id(record) for record in records}
    ):
        return "precedence"
    return "membership"


def _claims_on(
    attribute: str, records: Sequence[Record], columns: AttributeClaims
) -> AttributeClaims:
    """The claims on ``attribute`` among ``records`` — the one place a
    missing cell is dropped.  ``columns`` holds the records' sources,
    reliabilities and recencies; an attribute no record misses shares
    them as they are."""
    values = [record.cells.get(attribute, MISSING) for record in records]
    kept = [i for i, value in enumerate(values) if not value.is_missing]
    claims = AttributeClaims(values, *columns[1:])
    return claims if len(kept) == len(values) else claims.select(kept)


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

    def _columns(self, records: Sequence[Record]) -> AttributeClaims:
        """Per record: its source, the source's reliability and the
        record's recency (no values yet) — looked up once per cluster,
        shared by every attribute's claims (:func:`_claims_on`)."""
        sources = [record.source for record in records]
        return AttributeClaims(
            (),
            sources,
            [self.reliabilities.get(source, 0.5) for source in sources],
            self._recencies(records),
        )

    def _fuse_ordered(self, cluster_id: str, records: list[Record]) -> Record:
        """Fuse one cluster's records, already in precedence order."""
        columns = self._columns(records)
        cells: dict[str, Value] = {}
        for attribute in self.target_schema:
            claims = _claims_on(attribute.name, records, columns)
            if not claims.values:
                cells[attribute.name] = MISSING
                continue
            strategy = self._strategy_for(attribute.name)
            choice = resolve(strategy, claims)
            # Provenance covers the supporting sources' claims only:
            # feedback on the fused value then credits/blames exactly the
            # sources that put it there.
            supporting = [
                value.provenance
                for value, source in zip(claims.values, claims.sources)
                if source in choice.supporters
            ] or [value.provenance for value in claims.values]
            cells[attribute.name] = Value(
                choice.value.raw,
                attribute.dtype,
                min(1.0, choice.confidence),
                Provenance.combine(
                    Step.FUSION, f"{strategy}:{cluster_id}", tuple(supporting)
                ),
            )
        # Evaluation-only lineage: carry the majority truth id, if present.
        truth_ids = [
            truth
            for truth in (record.raw("_truth") for record in records)
            if truth is not None
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
        Kept records are counted on ``fusion.clusters_reused``; with a
        ``previous`` fuser, each cluster fused again is counted on
        ``fusion.refused.<reason>`` (:data:`REFUSE_REASONS`).
        """
        same_settings = (
            previous is not None and previous._settings() == self._settings()
        )
        reusable = previous._fused if same_settings else {}
        self._fused = {}
        table = Table(name, self.target_schema)
        reused = 0
        refused = dict.fromkeys(REFUSE_REASONS, 0)
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
                if previous is not None:
                    refused[_refuse_reason(same_settings, kept, records)] += 1
            self._fused[cluster.cluster_id] = (records, fused)
            table.append(fused)
        if self.metrics is not None:
            self.metrics.counter("fusion.clusters_reused").increment(reused)
            if previous is not None:
                for reason, count in refused.items():
                    self.metrics.counter(f"fusion.refused.{reason}").increment(
                        count
                    )
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
                claims = _claims_on(
                    attribute, records, self._columns(records)
                )
                alternatives = claims.select([
                    i for i, value in enumerate(claims.values)
                    if value.raw != current.raw
                ])
                if alternatives.values:
                    choice = resolve("weighted", alternatives)
                    updates[attribute] = current.with_raw(
                        choice.value.raw, Step.FEEDBACK, "rejected-value"
                    )
            return record.with_cells(updates) if updates else record

        return fused.map_records(fix)
