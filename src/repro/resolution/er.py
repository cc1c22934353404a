"""The entity resolution pipeline: block, compare, decide, cluster.

Matched pairs are closed under transitivity by connected-component
clustering (a union-find over the match edges), so the output is a
partition of the input records into entities — ready for the fusion
component to reconcile.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Hashable,
    Iterable,
    Mapping,
    Protocol,
    Sequence,
)

import numpy as np

from repro.model.records import Record, Table
from repro.resolution.blocking import full_pairs, pair_array, token_blocking
from repro.resolution.comparison import (
    TRANSIENT_DTYPES,
    RecordComparator,
    ScoringContext,
    default_comparator,
)
from repro.resolution.kernels import compile_comparator
from repro.resolution.rules import MatchDecision, ThresholdRule, refit_threshold

if TYPE_CHECKING:  # typing only
    from repro.obs import MetricsRegistry

__all__ = [
    "SMALL_TABLE_CUTOFF",
    "EntityCluster",
    "EntityResolver",
    "ResolutionResult",
    "clusters_of",
    "refit_rule",
    "stable_cluster_id",
]


#: Rows at or below which :class:`EntityResolver` compares every pair
#: instead of blocking (its default, and what the static cost model reads).
SMALL_TABLE_CUTOFF = 30


class _Rule(Protocol):
    def decide(
        self, similarity: float, vector: Sequence[float | None]
    ) -> MatchDecision: ...


def stable_cluster_id(records: Sequence[Record]) -> str:
    """A content-derived entity id, stable across pipeline re-runs.

    Feedback refers to entities by id; positional ids ("entity-7") break
    the moment re-planning changes the record set, silently mis-binding
    old judgments.  Hashing the members' source + leading field keeps ids
    stable whenever the entity's membership is unchanged.
    """

    def signature(record: Record) -> str:
        # Identity-bearing cells only: prices, dates, and URLs are the
        # values that *change between runs* — hashing them would give the
        # same entity a new id on every price move, breaking both feedback
        # binding and change detection.
        cells = ",".join(
            f"{name}={record.cells[name].raw}"
            for name in sorted(record.cells)
            if not name.startswith("_")
            and not record.cells[name].is_missing
            and record.cells[name].dtype not in TRANSIENT_DTYPES
        )
        return f"{record.source}|{cells}"

    digest = hashlib.sha1()
    for line in sorted(signature(record) for record in records):
        digest.update(line.encode("utf-8"))
        digest.update(b";")
    return f"entity-{digest.hexdigest()[:10]}"


@dataclass
class EntityCluster:
    """One resolved entity: the records claimed to be the same thing."""

    cluster_id: str
    records: list[Record]

    @classmethod
    def from_records(cls, records: Sequence[Record]) -> "EntityCluster":
        """A cluster under the content-derived stable id for ``records``.

        The one sanctioned way to mint a cluster id: every execution mode
        (single-node, partitioned) that builds clusters through this
        constructor assigns the same entity the same id, so feedback
        keyed by entity id binds across modes.
        """
        return cls(stable_cluster_id(records), list(records))

    def __len__(self) -> int:
        return len(self.records)

    @property
    def sources(self) -> frozenset[str]:
        """The sources contributing to this entity."""
        return frozenset(record.source for record in self.records)


@dataclass
class ResolutionResult:
    """The full output of one ER run."""

    clusters: list[EntityCluster]
    matched_pairs: dict[tuple[str, str], float] = field(default_factory=dict)
    compared: int = 0
    candidate_pairs: int = 0

    def __len__(self) -> int:
        return len(self.clusters)

    def non_singleton(self) -> list[EntityCluster]:
        """Clusters merging at least two records."""
        return [cluster for cluster in self.clusters if len(cluster) > 1]

    def pair_set(self) -> set[tuple[str, str]]:
        """All within-cluster record-id pairs (transitively closed)."""
        pairs: set[tuple[str, str]] = set()
        for cluster in self.clusters:
            rids = sorted(record.rid for record in cluster.records)
            for i, left in enumerate(rids):
                for right in rids[i + 1:]:
                    pairs.add((left, right))
        return pairs


def clusters_of(
    records: Mapping[Hashable, Record],
    edges: Iterable[tuple[Hashable, Hashable]],
    previous: Sequence[EntityCluster] = (),
) -> list[EntityCluster]:
    """Close matches under transitivity: the connected components of the
    match graph over ``records`` (node → record) as clusters sorted by
    their content-derived id.

    The one cluster builder: single-node and partitioned ER both end
    here, so an entity gets the same id in every execution mode.  The
    components come from a union-find with path halving; a component's
    members are in sorted node order, and components enter the (stable)
    sort by id in the order of their first node in ``records``.

    A component whose members are the very records of a cluster in
    ``previous``, in the same order, is that cluster: its id hashes
    nothing but those records.
    """
    parent = {node: node for node in records}

    def root(node: Hashable) -> Hashable:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for left, right in edges:
        left, right = root(left), root(right)
        if left != right:
            parent[right] = left
    components: dict[Hashable, list[Hashable]] = {}
    for node in records:
        components.setdefault(root(node), []).append(node)
    # id() is safe: ``previous`` keeps every first member alive.
    kept = {
        id(cluster.records[0]): cluster for cluster in previous if cluster.records
    }
    clusters = []
    for members in components.values():
        component = [records[node] for node in sorted(members)]
        cluster = kept.get(id(component[0]))
        if cluster is None or len(cluster.records) != len(component) or any(
            a is not b for a, b in zip(cluster.records, component)
        ):
            cluster = EntityCluster.from_records(component)
        clusters.append(cluster)
    clusters.sort(key=lambda c: c.cluster_id)
    return clusters


class EntityResolver:
    """A configurable block → compare → decide → cluster pipeline.

    Defaults: token blocking on the given key attributes (falling back to
    exhaustive pairs for tiny tables), the schema-derived comparator, and
    a threshold rule — everything replaceable, and everything retrainable
    from feedback via :mod:`repro.feedback.propagation`.
    """

    def __init__(
        self,
        comparator: RecordComparator | ScoringContext | None = None,
        rule: _Rule | None = None,
        blocking_attributes: Sequence[str] | None = None,
        blocker: Callable[[Table], object] | None = None,
        small_table_cutoff: int = SMALL_TABLE_CUTOFF,
        use_kernels: bool = True,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.comparator = comparator
        self.rule: _Rule = rule if rule is not None else ThresholdRule(0.8)
        self.blocking_attributes = (
            tuple(blocking_attributes) if blocking_attributes else None
        )
        self.blocker = blocker
        self.small_table_cutoff = small_table_cutoff
        #: Engage the vectorised prune kernels when the comparator/rule
        #: pair is compilable.  The kernels are a *sound prefilter* —
        #: decisions stay bit-identical — so this is a pure perf toggle,
        #: kept switchable for parity testing and benchmarking.
        self.use_kernels = use_kernels
        #: Optional registry for blocking/kernel observability counters
        #: (``blocking.dropped_*``, ``kernels.*``).
        self.metrics = metrics

    def _candidate_pairs(self, table: Table) -> np.ndarray:
        if self.blocker is not None:
            # Custom blockers may still return legacy pair sets.
            return pair_array(self.blocker(table))
        if len(table) <= self.small_table_cutoff:
            return full_pairs(table)
        attributes = self.blocking_attributes
        if attributes is None:
            attributes = tuple(
                a.name
                for a in table.schema
                if a.required and not a.name.startswith("_")
            ) or tuple(
                name for name in table.schema.names if not name.startswith("_")
            )[:2]
        return token_blocking(table, attributes, metrics=self.metrics)

    def resolve(
        self, table: Table, previous: ResolutionResult | None = None
    ) -> ResolutionResult:
        """Partition ``table`` into entity clusters.

        One call scores off one :class:`ScoringContext`: a fresh one
        around the comparator, dropped on return — unless the resolver
        was built on a context, whose builder then shares it with the
        other pairs it scores for this resolve (:func:`refit_rule`) and
        may build the next resolve's context on it.

        ``previous`` is an earlier result: a cluster of the very same
        records is kept, id and all (:func:`clusters_of`).
        """
        scores = ScoringContext.around(
            self.comparator or default_comparator(table.schema)
        )
        pairs = self._candidate_pairs(table)
        matches = self._decide(table, scores, pairs)

        return ResolutionResult(
            clusters_of(
                dict(enumerate(table.records)),
                [(left, right) for left, right, __, __ in matches],
                previous.clusters if previous is not None else (),
            ),
            matched_pairs={
                key: confidence for __, __, key, confidence in matches
            },
            compared=int(pairs.shape[0]),
            candidate_pairs=int(pairs.shape[0]),
        )

    def _prefilter(
        self, table: Table, scores: ScoringContext, pairs: np.ndarray
    ) -> np.ndarray:
        """Prune pairs the compiled kernels prove cannot match.

        Every survivor is re-decided by the exact scalar path; the
        kernels never decide, only discard the provably hopeless.
        """
        if not self.use_kernels or pairs.shape[0] == 0:
            return pairs
        compiled = compile_comparator(
            scores, self.rule, table, metrics=self.metrics
        )
        if compiled is None:
            return pairs
        survivors = compiled.survivors(pairs)
        if self.metrics is not None:
            self.metrics.counter("kernels.candidates").increment(
                int(pairs.shape[0])
            )
            self.metrics.counter("kernels.pruned").increment(
                int(pairs.shape[0] - survivors.shape[0])
            )
            self.metrics.counter("kernels.survivors").increment(
                int(survivors.shape[0])
            )
        return survivors

    def _decide(
        self,
        table: Table,
        scores: ScoringContext,
        pairs: np.ndarray,
    ) -> list[tuple[int, int, tuple[str, str], float | None]]:
        """Compare and decide every candidate pair the kernels keep."""
        ordered_pairs = self._prefilter(table, scores, pairs).tolist()
        records_by_index = dict(enumerate(table.records))
        return _decide_pairs(
            scores, self.rule, records_by_index, ordered_pairs
        )


def _score_pair(
    scores: ScoringContext, left: Record, right: Record
) -> tuple[list[float | None], float]:
    """One pair's field vector and the pooled similarity it pools to.

    The one scoring function: candidate pairs (:func:`_decide_pairs`) and
    feedback-labelled pairs (:func:`refit_rule`) both go through it, so a
    threshold is always fitted on the scale the resolver decides on —
    and off the one context, so a value pair or token pair either of
    them has scored is not scored again.  The similarity is derived from
    the vector a match rule is handed anyway (``similarity_from_vector``),
    so each field is compared exactly once per pair.
    """
    vector = scores.vector(left, right)
    comparator = scores.comparator
    from_vector = getattr(comparator, "similarity_from_vector", None)
    if from_vector is not None:
        return vector, from_vector(vector)
    # custom comparator predating similarity_from_vector
    return vector, comparator.similarity(left, right)


def _decide_pairs(
    scores: ScoringContext,
    rule: _Rule,
    records_by_index: dict[int, Record],
    pairs: Sequence[tuple[int, int]],
) -> list[tuple[int, int, tuple[str, str], float | None]]:
    """The compare/decide kernel: one :func:`_score_pair` per candidate —
    this loop is the quadratic hot path of the whole pipeline."""
    matches: list[tuple[int, int, tuple[str, str], float | None]] = []
    for left_index, right_index in pairs:
        left = records_by_index[left_index]
        right = records_by_index[right_index]
        vector, similarity = _score_pair(scores, left, right)
        decision = rule.decide(similarity, vector)
        if decision.is_match:
            key = tuple(sorted((left.rid, right.rid)))
            matches.append(
                (left_index, right_index, key, decision.confidence)
            )
    return matches


def refit_rule(
    prior: float,
    comparator: RecordComparator | ScoringContext,
    table: Table,
    labels: Mapping[tuple[str, str], bool],
) -> ThresholdRule:
    """The threshold rule duplicate feedback leaves ``prior`` at.

    ``labels`` maps record-id pairs to their consolidated verdict
    (:meth:`~repro.feedback.store.FeedbackStore.duplicate_labels`); pairs
    with a record outside ``table`` are skipped, the rest are scored by
    :func:`_score_pair` and handed to
    :func:`~repro.resolution.rules.refit_threshold`.  Pass the
    :class:`ScoringContext` the resolver will decide with and the
    labelled pairs fill the tables its candidates then read.
    """
    scores = ScoringContext.around(comparator)
    records = {record.rid: record for record in table}
    similarities, verdicts = [], []
    for (left_rid, right_rid), verdict in labels.items():
        left, right = records.get(left_rid), records.get(right_rid)
        if left is None or right is None:
            continue
        similarities.append(_score_pair(scores, left, right)[1])
        verdicts.append(verdict)
    return refit_threshold(prior, similarities, verdicts)
