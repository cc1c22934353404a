"""The Wrangler: the abstract architecture of Figure 1, made executable.

``Wrangler`` wires Data Sources → Data Extraction → Data Integration →
Wrangled Data as an **incremental dataflow**, with the Working Data
(tables, matches, mappings, wrappers, quality annotations, feedback) in
the middle and the user/data contexts informing every step:

* the autonomic planner composes the pipeline (no hand-wired workflow);
* every component reads and writes the shared working data;
* feedback propagates to all components and invalidates exactly the
  dataflow nodes it affects — re-running is cheap, as Section 2.4 demands.
"""

from __future__ import annotations

import datetime as _dt
from typing import Mapping, Sequence

from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.core.dataflow import Dataflow
from repro.core.planner import AutonomicPlanner, WranglePlan
from repro.core.result import WrangleResult
from repro.errors import (
    DataflowError,
    DegradedRunError,
    PlanningError,
    WranglingError,
)
from repro.model.annotations import Dimension, QualityAnnotation
from repro.extraction.induction import ExampleAnnotation, auto_induce, induce_wrapper
from repro.extraction.repair import WrapperRepairer
from repro.feedback.propagation import FeedbackPropagator
from repro.feedback.store import FeedbackStore
from repro.feedback.types import (
    DuplicateFeedback,
    ExtractionFeedback,
    Feedback,
    MatchFeedback,
    RelevanceFeedback,
    ValueFeedback,
)
from repro.fusion.fuse import EntityFuser
from repro.mapping.mapping import Mapping
from repro.mapping.selection import MappingSelector
from repro.matching.schema_matching import SchemaMatcher
from repro.model.records import Record, Table
from repro.model.schema import Schema
from repro.obs import Telemetry
from repro.quality.constraints import Constraint
from repro.quality.metrics import QualityAnalyser
from repro.quality.repair import repair_table
from repro.resilience import DegradationLedger, RetryPolicy, resilient
from repro.resilience.policy import Deadline
from repro.resilience.wrap import (
    ResilientDocumentSource,
    ResilientStructuredSource,
)
from repro.resolution.comparison import profiled_comparator
from repro.resolution.er import EntityResolver
from repro.resolution.rules import ThresholdRule, fit_threshold
from repro.sources.base import DataSource, DocumentSource, StructuredSource
from repro.sources.registry import SourceRegistry
from repro.model.workingdata import WorkingData

__all__ = ["Wrangler"]


class Wrangler:
    """Context-aware, pay-as-you-go wrangling over registered sources."""

    def __init__(
        self,
        user: UserContext,
        data: DataContext | None = None,
        constraints: Sequence[Constraint] = (),
        master_key: str | None = None,
        join_attribute: str | None = None,
        date_attribute: str | None = None,
        today: _dt.date | None = None,
        discover_constraints: bool = False,
        validate: bool = True,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.user = user
        self.data = data or DataContext()
        self.constraints = list(constraints)
        self.discover_constraints = discover_constraints
        #: Pre-flight static validation of every composed plan (see
        #: :mod:`repro.analysis.validator`).  ``validate=False`` is the
        #: escape hatch for deliberately running an unchecked pipeline.
        self.validate = validate
        self.master_key = master_key
        self.join_attribute = join_attribute
        if date_attribute is None and "updated" in user.target_schema:
            date_attribute = "updated"
        self.date_attribute = date_attribute
        self.registry = SourceRegistry()
        self.working = WorkingData()
        self.feedback = FeedbackStore()
        self.planner = AutonomicPlanner()
        #: Clock + metrics + tracer shared by every instrumented component
        #: of this wrangler; pass a manual-clock bundle for deterministic
        #: timings (see :mod:`repro.obs`).
        self.telemetry = telemetry or Telemetry()
        self.analyser = QualityAnalyser(
            self.data,
            self.working.annotations,
            today=today,
            clock=self.telemetry.clock,
        )
        self._examples: dict[str, list[ExampleAnnotation]] = {}
        #: Resilience configuration, set by :meth:`resilience`.  When a
        #: policy is present every registered source is (and every future
        #: source will be) wrapped, and the ledger records acquisition.
        self._resilience_policy: RetryPolicy | None = None
        self._quorum: float = 0.0
        #: Declared plan/tenant cost budget (in ``cost_per_access``
        #: units), set by :meth:`budget`.  ``None`` means unbounded: the
        #: cost certifier still estimates, but admission control cannot
        #: refuse the plan on spend.
        self._cost_budget: float | None = None
        self.degradation: DegradationLedger | None = None
        self._flow: Dataflow | None = None
        self._match_evidence: dict[tuple[str, str], list[bool]] = {}
        #: Durable-ingestion configuration, set by :meth:`checkpointing`.
        #: When a store is attached every probe and acquisition commits a
        #: checkpoint, stage nodes journal as they land, and an
        #: interrupted run resumes from the last committed step.
        self._checkpoints = None
        #: The open :class:`~repro.ingest.checkpoint.RunLog` while a
        #: checkpointed run executes (None otherwise).
        self._ingest_log = None
        from repro.core.history import SnapshotHistory

        self.history = SnapshotHistory()
        self._recorded_fuse_runs = -1

    # -- source management ------------------------------------------------

    def add_source(self, source: DataSource) -> "Wrangler":
        """Register a source (structured or document).

        Sources registered after :meth:`resilience` has been called are
        wrapped under the same policy and ledger as the rest.
        """
        if self._resilience_policy is not None:
            source = resilient(
                source,
                self._resilience_policy,
                telemetry=self.telemetry,
                ledger=self.degradation,
            )
        self.registry.register(source)
        self._flow = None  # topology changed; rebuild on next run
        return self

    def resilience(
        self, policy: RetryPolicy | None = None, *, quorum: float = 0.0
    ) -> "Wrangler":
        """Guard acquisition with retries, breakers, and deadlines.

        Wraps every registered (and future) source in a
        :func:`repro.resilience.resilient` wrapper driven by ``policy``
        (default :class:`RetryPolicy`).  Attempts and outcomes land in the
        degradation ledger, surfaced as ``WrangleResult.degradation``.

        ``quorum`` is how many sources must survive acquisition for a run
        to count as a success: a fraction of the registry when below 1, an
        absolute count otherwise.  A run falling short raises
        :class:`~repro.errors.DegradedRunError`; the default of 0 never
        raises — the paper's pay-as-you-go stance is to complete with
        downgraded quality annotations rather than fail.
        """
        self._resilience_policy = policy or RetryPolicy()
        self._quorum = quorum
        if self.degradation is None:
            self.degradation = DegradationLedger()
        for name in self.registry.names():
            self.registry.replace(
                resilient(
                    self.registry.get(name),
                    self._resilience_policy,
                    telemetry=self.telemetry,
                    ledger=self.degradation,
                )
            )
        self._flow = None  # node bodies close over the wrapped sources
        return self

    def add_sources(self, sources: Sequence[DataSource]) -> "Wrangler":
        """Register several sources."""
        for source in sources:
            self.add_source(source)
        return self

    def budget(self, total: float | None) -> "Wrangler":
        """Declare the plan/tenant cost budget for admission control.

        ``total`` is in ``cost_per_access`` units — the same currency as
        :attr:`~repro.sources.base.SourceMetadata.cost_per_access` and
        the planner's pay-as-you-go accounting.  The cost certifier (see
        :mod:`repro.analysis.cost`) estimates every composed plan's
        total access spend *statically* and the preflight gate refuses
        plans whose estimate exceeds this declaration (``CC005``).
        Pass ``None`` to clear the declaration.
        """
        if total is not None and total < 0:
            raise ValueError(f"budget must be non-negative, got {total}")
        self._cost_budget = None if total is None else float(total)
        return self

    def checkpointing(self, store) -> "Wrangler":
        """Journal run progress durably so an interrupted run resumes.

        ``store`` is a :class:`~repro.ingest.checkpoint.CheckpointStore`.
        With it attached, every probe and acquisition commits (payload
        snapshot + per-source watermark), sources with a declared delta
        cursor re-fetch only rows past the committed watermark, stage
        nodes journal as they compute, and the next run under the same
        plan signature resumes from the last committed checkpoint — no
        source access is ever paid for twice.  The run's summary lands on
        ``WrangleResult.ingest``; see ``docs/INCREMENTAL.md``.
        """
        self._checkpoints = store
        if store is not None and store.telemetry is None:
            store.telemetry = self.telemetry
        return self

    def _plan_signature(self) -> str:
        """The stable identity a resumable run is keyed on.

        Source set, target schema, and join configuration: a crashed
        run's checkpoints are only trusted by a successor asking for the
        same wrangle.
        """
        from repro.model.workingdata import content_digest

        return content_digest({
            "sources": sorted(self.registry.names()),
            "target": [a.name for a in self.user.target_schema],
            "master_key": self.master_key,
            "join_attribute": self.join_attribute,
        })

    def annotate_examples(
        self, source_name: str, examples: Sequence[ExampleAnnotation]
    ) -> "Wrangler":
        """Provide wrapper-induction examples for a document source."""
        self._examples.setdefault(source_name, []).extend(examples)
        if self._flow is not None and self._flow.nodes():
            try:
                self._flow.invalidate(f"acquire:{source_name}")
            except DataflowError:
                pass  # node not built yet; examples apply on first run
        return self

    # -- pipeline stages (dataflow node bodies) -----------------------------

    def _probe_all(self) -> dict[str, object]:
        """Cheaply sample every source and annotate what the sample shows.

        Section 2.3's "use all the available information": before spending
        budget, each source is probed (a fraction of a full access), the
        sample is bootstrap-matched and mapped, and its quality — accuracy
        against master data, timeliness, completeness — is written into
        the working data so that source selection is informed rather than
        cost-blind.
        """
        reports: dict[str, object] = {}
        matcher = SchemaMatcher(self.data, threshold=0.5)
        for name in self.registry.names():
            source = self.registry.get(name)
            try:
                if isinstance(source, StructuredSource):
                    sample = self._probed(source).infer_schema()
                elif isinstance(source, DocumentSource):
                    documents = self._probed(source)
                    # Probing must stay cheap: induce the bootstrap wrapper
                    # from the documents the probe already paid for, never
                    # from a full fetch.  Examples pointing at pages outside
                    # the sample simply don't constrain the bootstrap; the
                    # real acquisition pass uses them all.
                    probed_urls = {doc.url for doc in documents}
                    examples = [
                        example
                        for example in self._examples.get(name, [])
                        if example.url in probed_urls
                    ]
                    if examples:
                        wrapper = induce_wrapper(
                            documents, examples, source=name
                        )
                    else:
                        wrapper = auto_induce(documents, source=name)
                    sample = wrapper.extract(documents).infer_schema()
                else:
                    continue
                correspondences = matcher.match(sample, self.user.target_schema)
                mapping = Mapping.from_correspondences(
                    name, self.user.target_schema, correspondences
                )
                # File the statically usable probe artifacts: the schema
                # the sample exposed and the bootstrap mapping.  The
                # pre-execution type checker reads these to thread
                # schemas through the plan without touching any source.
                self.working.put("schema", f"probe/{name}", sample.schema)
                self.working.put("mapping", f"probe/{name}", mapping)
                mapped = Mapping(
                    sample.name, mapping.target_schema, mapping.attribute_maps
                ).apply(sample)
                reports[name] = self.analyser.analyse(
                    mapped,
                    user=self.user,
                    master_key=self.master_key,
                    join_attribute=self.join_attribute,
                    date_attribute=self.date_attribute,
                    annotate_as=f"source:{name}",
                )
                # Catalog coverage: the source's advertised size against the
                # master catalog, scaled by observed field completeness.
                if (
                    self.master_key is not None
                    and isinstance(source, StructuredSource)
                    and self.master_key in self.data.master_data
                ):
                    master_size = len(self.data.master(self.master_key))
                    coverage = min(
                        1.0, source.size_hint() / max(1, master_size)
                    ) * mapped.completeness()
                    self.working.annotations.add(
                        QualityAnnotation(
                            f"source:{name}",
                            Dimension.COMPLETENESS,
                            coverage,
                            confidence=1.0,
                            origin="probe-coverage",
                        )
                    )
            except WranglingError:
                # A source whose sample cannot even be parsed or matched is
                # itself a quality signal.
                self.working.annotations.add(
                    QualityAnnotation(
                        f"source:{name}",
                        Dimension.ACCURACY,
                        0.1,
                        confidence=0.5,
                        origin="probe-failure",
                    )
                )
        self.working.put("report", "probes", reports)
        return reports

    def _probed(self, source: DataSource):
        """This run's probe result for ``source`` — restored or live.

        Under checkpointing each probe commits as its own step, so a run
        killed mid-probe resumes past the sources already sampled without
        re-charging their probe fraction.
        """
        log = self._ingest_log
        if log is None:
            return source.probe()
        step = f"probe:{source.name}"
        restored = log.restored(step)
        if restored is not None:
            return restored
        from repro.sources.base import PROBE_COST_FRACTION

        value = source.probe()
        log.commit(
            step, data={"fraction": PROBE_COST_FRACTION}, payload=value
        )
        return value

    def _acquire(self, source: DataSource) -> Table:
        """Fetch one source, degrading gracefully when it breaks.

        "Veracity represents the uncertainty that is inevitable" — and
        with thousands of sources, some will be down, malformed, or
        unwrappable at any given time.  A failing source yields an empty
        table, a near-zero reliability annotation, and a failure record in
        the working data; the rest of the pipeline proceeds.
        """
        try:
            if isinstance(source, StructuredSource):
                table = self._fetched(source).infer_schema()
                self.working.put("table", f"raw/{source.name}", table)
                self._record_degradation(source.name)
                return table
            if isinstance(source, DocumentSource):
                documents = self._fetched(source)
                examples = self._examples.get(source.name)
                if examples:
                    wrapper = induce_wrapper(
                        documents, examples, source=source.name
                    )
                else:
                    wrapper = auto_induce(documents, source=source.name)
                repairer = WrapperRepairer(self.data)
                wrapper, table, report = repairer.repair(wrapper, documents)
                self.working.put("wrapper", source.name, wrapper)
                self.working.put(
                    "report", f"wrapper-repair/{source.name}", report
                )
                table = table.infer_schema()
                self.working.put("table", f"raw/{source.name}", table)
                self._record_degradation(source.name)
                return table
        except WranglingError as failure:
            self.working.put("failure", source.name, str(failure))
            self._record_degradation(source.name)
            self.working.annotations.add(
                QualityAnnotation(
                    f"source:{source.name}",
                    Dimension.ACCURACY,
                    0.05,
                    confidence=0.9,
                    origin="acquisition-failure",
                )
            )
            self.registry.observe(source.name, False, weight=2.0)
            empty = Table(source.name, Schema(()))
            self.working.put("table", f"raw/{source.name}", empty)
            return empty
        raise PlanningError(f"unsupported source type: {type(source).__name__}")

    def _fetched(self, source: DataSource):
        """This run's fetch result for ``source`` — restored or live.

        Under checkpointing the fetch is durable: a checkpoint committed
        by a prior (killed) attempt is restored without touching the
        source, and a live fetch goes through
        :func:`~repro.ingest.incremental.acquire_durable` — delta when
        the committed watermark allows, committed before the value is
        handed to the pipeline.
        """
        log = self._ingest_log
        if log is not None:
            restored = log.restored(f"acquire:{source.name}")
            if restored is not None:
                return restored
            from repro.ingest.incremental import acquire_durable

            return acquire_durable(source, log, self.telemetry)
        return source.fetch()

    def _record_degradation(self, source_name: str) -> None:
        """File one source's attempt/outcome ledger in the working data.

        Acquisition provenance, as Section 4.2 stores every intermediate:
        what it took (retries, backoff, breaker state) to get — or fail to
        get — each source's data this run.
        """
        if self.degradation is None:
            return
        entry = self.degradation.disposition(source_name)
        if entry is not None:
            self.working.put("resilience", source_name, entry.to_dict())

    def _match(self, table: Table, plan: WranglePlan) -> list:
        matcher = SchemaMatcher(
            self.data,
            channels=plan.matcher_channels,
            threshold=plan.match_threshold,
            feedback=self._match_evidence,
        )
        correspondences = matcher.match(table, self.user.target_schema)
        self.working.put("match", table.name, correspondences)
        return correspondences

    def _mapping(
        self, source_name: str, correspondences: list, table: Table
    ) -> Mapping:
        mapping = Mapping.from_correspondences(
            source_name, self.user.target_schema, correspondences,
            sample_table=table,
        )
        self.working.put("mapping", source_name, mapping)
        return mapping

    def _mapped(self, mapping: Mapping, table: Table) -> Table:
        mapped = mapping.apply(table)
        self.working.put("table", f"mapped/{mapping.source_name}", mapped)
        return mapped

    def _source_quality(self, source_name: str, mapped: Table) -> object:
        report = self.analyser.analyse(
            mapped,
            user=self.user,
            master_key=self.master_key,
            join_attribute=self.join_attribute,
            date_attribute=self.date_attribute,
            annotate_as=f"source:{source_name}",
        )
        self.working.put("report", f"source/{source_name}", report)
        return report

    def _select(self, plan: WranglePlan, mappings: Mapping | dict) -> list:
        selector = MappingSelector(self.registry, self.working.annotations)
        candidates = [
            mappings[name] for name in plan.sources if name in mappings
        ]
        # Acquisition already spent the budget; selection filters on
        # floors and ranks by the context's weights.
        unbounded = self.user.with_budget(float("inf"))
        selected = selector.select(candidates, unbounded)
        self.working.put("mapping", "selected", [s.mapping.mapping_id for s in selected])
        return selected

    def _translate(
        self, selected: list, mapped_tables: dict[str, Table]
    ) -> Table:
        translated = Table("translated", self.user.target_schema)
        for scored in selected:
            table = mapped_tables.get(scored.mapping.source_name)
            if table is None:
                continue
            for record in table:
                if self.user.in_scope(record):
                    translated.append(record)
        self.working.put("table", "translated", translated)
        return translated

    def _resolve(self, translated: Table, plan: WranglePlan):
        comparator = profiled_comparator(
            self.user.target_schema,
            translated,
            attributes=list(plan.er_attributes) or None,
        )
        rule = ThresholdRule(plan.er_threshold)
        similarities, vectors, labels = self._er_labelled_pairs(
            translated, comparator
        )
        if len(labels) >= 4:
            # Threshold fitting is monotone by construction, so judgments
            # collected on *borderline* pairs (where active acquisition
            # sends the crowd) generalise safely to the easy mass of
            # pairs.  A per-field logistic rule is strictly more
            # expressive but extrapolates disastrously from
            # borderline-only training data — measured, not speculated
            # (it drove pair precision to 0.02 on the jobs world).
            if len(set(labels)) == 2:
                rule = fit_threshold(similarities, labels)
            elif not any(labels):
                # Everything the crowd saw near the threshold was junk:
                # the cut belongs above the highest rejected pair.
                floor = min(0.99, max(similarities) + 0.01)
                rule = ThresholdRule(max(plan.er_threshold, floor))
            else:
                # Everything seen was a true duplicate: merging may relax
                # down to the lowest confirmed pair.
                ceiling = max(0.5, min(similarities) - 0.01)
                rule = ThresholdRule(min(plan.er_threshold, ceiling))
        resolver = EntityResolver(
            comparator=comparator,
            rule=rule,
            metrics=self.telemetry.metrics,
        )
        result = resolver.resolve(translated)
        self.working.put("entity", "clusters", result)
        return result

    def _er_labelled_pairs(self, translated: Table, comparator):
        """Labelled similarities + field vectors from duplicate feedback.

        The pooled similarity must be the same weighted score the resolver
        thresholds — fitting on any other scale would learn a threshold in
        the wrong units.
        """
        records = {record.rid: record for record in translated}
        similarities = []
        vectors = []
        labels = []
        for pair, items in self.feedback.duplicate_verdicts().items():
            left, right = records.get(pair[0]), records.get(pair[1])
            if left is None or right is None:
                continue
            votes = [item.is_duplicate for item in items]
            verdict = sum(votes) * 2 > len(votes)
            vector = comparator.vector(left, right)
            similarities.append(comparator.similarity_from_vector(vector))
            vectors.append(vector)
            labels.append(verdict)
        return similarities, vectors, labels

    def _source_reliabilities(self) -> dict[str, float]:
        """Per-source trust for fusion: the feedback-driven posterior
        blended with whatever the quality analyses (probes included) have
        annotated — all the available information, not just one channel."""
        scores = {}
        for name, posterior in self.registry.reliability_scores().items():
            annotated = self.working.annotations.score(
                f"source:{name}", Dimension.ACCURACY, default=posterior
            )
            scores[name] = 0.5 * posterior + 0.5 * annotated
        return scores

    def _fuse(self, resolution, plan: WranglePlan) -> Table:
        fuser = EntityFuser(
            self.user.target_schema,
            reliabilities=self._source_reliabilities(),
            default_strategy=plan.fusion_strategy,
            strategy_overrides=plan.fusion_overrides,
            recency_attribute=self.date_attribute,
        )
        fused = fuser.fuse(resolution.clusters)
        fused = self._apply_value_verdicts(fused, resolution)
        self.working.put("table", "wrangled", fused)
        return fused

    def _apply_value_verdicts(self, fused: Table, resolution) -> Table:
        """Fold consolidated value feedback into the fused data itself.

        A rejected cell takes the user's correction when one was supplied;
        otherwise the rejected value's candidates are excluded and the
        attribute is re-fused from the remaining claims.  (Cluster ids are
        stable under value feedback because it never invalidates the
        resolve node, so entity references stay valid.)
        """
        verdicts = self.feedback.value_verdicts()
        if not verdicts:
            return fused
        from collections import Counter

        from repro.fusion.strategies import Candidate, resolve as fuse_resolve
        from repro.model.provenance import Step

        clusters = {c.cluster_id: c for c in resolution.clusters}
        reliabilities = self._source_reliabilities()

        def fix(record: Record) -> Record:
            updates = {}
            for (entity, attribute), items in verdicts.items():
                if entity != record.rid or attribute not in record.cells:
                    continue
                votes = [item.is_correct for item in items]
                if 2 * sum(votes) >= len(votes):
                    continue  # not rejected
                current = record.get(attribute)
                if current.is_missing:
                    continue
                corrections = [
                    item.correction for item in items
                    if item.correction is not None
                ]
                if corrections:
                    best = Counter(corrections).most_common(1)[0][0]
                    updates[attribute] = current.with_raw(
                        best, Step.FEEDBACK, "user-correction"
                    )
                    continue
                cluster = clusters.get(record.rid)
                if cluster is None:
                    continue
                alternatives = [
                    Candidate(
                        value,
                        member.source,
                        reliabilities.get(member.source, 0.5),
                    )
                    for member in cluster.records
                    for value in (member.get(attribute),)
                    if not value.is_missing and value.raw != current.raw
                ]
                if alternatives:
                    choice = fuse_resolve("weighted", alternatives)
                    updates[attribute] = current.with_raw(
                        choice.value.raw, Step.FEEDBACK, "rejected-value"
                    )
            if updates:
                return record.with_cells(updates)
            return record

        return fused.map_records(fix)

    def _repair(self, fused: Table, plan: WranglePlan):
        constraints = list(self.constraints)
        if plan.run_repair and self.discover_constraints:
            # Hand-written constraints do not scale to many sources:
            # mine near-exact dependencies from the fused data itself and
            # repair their few violations (approximate FDs are exactly
            # what dirty-but-mostly-regular data exhibits).
            from repro.quality.discovery import discover_fds

            mined = discover_fds(fused, max_lhs=1, max_error=0.05)
            for discovered in mined:
                if not discovered.is_exact:
                    constraints.append(discovered.fd)
            self.working.put(
                "report", "discovered-constraints",
                [d.fd.name for d in mined],
            )
        if not plan.run_repair or not constraints:
            return None
        result = repair_table(fused, constraints)
        self.working.put("table", "wrangled", result.table)
        return result

    # -- dataflow assembly ----------------------------------------------------

    def _compose_plan(self) -> WranglePlan:
        """Run the planner, then statically gate its output.

        Every ``wrangle`` run gets a pre-execution check: structure
        validation (``PV0xx``), schema-flow type checking over the probe
        artifacts (``TC001``–``TC009``), and node purity certification
        (``TC010``) run as one gate — see
        :func:`repro.analysis.typecheck.run_preflight` — before any
        source is fully accessed.  Error-severity findings raise
        :class:`~repro.errors.PlanValidationError`; construct the
        Wrangler with ``validate=False`` to skip the gate.
        """
        plan = self.planner.plan(
            self.user, self.data, self.registry, self.working.annotations
        )
        if self.validate:
            self._gate(plan).raise_on_error()
        return plan

    def _gate(self, plan: WranglePlan):
        """The combined static gate for one composed plan."""
        from repro.analysis.typecheck import run_preflight

        return run_preflight(
            plan=plan,
            user=self.user,
            data=self.data,
            registry=self.registry,
            dataflow=self._flow,
            working=self.working,
            master_key=self.master_key,
            date_attribute=self.date_attribute,
            cost_budget=self._cost_budget,
            discover_constraints=self.discover_constraints,
        )

    def preflight(self):
        """The full static gate's report, without executing the pipeline.

        Probes the sources (the cheap sample pass) and composes a plan,
        then runs structure validation, schema-flow type checking, and
        purity certification over it.  Returns the
        :class:`~repro.analysis.validator.ValidationReport` (its ``cost``
        carries the plan's cost certificate) instead of raising, so
        callers (e.g. ``python -m repro.analysis typecheck`` / ``cost``)
        can render every finding.
        """
        flow = self.flow
        flow.pull("probe")
        plan = self.planner.plan(
            self.user, self.data, self.registry, self.working.annotations
        )
        return self._gate(plan)

    def _build_flow(self) -> Dataflow:
        flow = Dataflow(telemetry=self.telemetry)
        flow.add("probe", lambda inputs: self._probe_all(), stage="probe")
        flow.add(
            "plan", lambda inputs: self._compose_plan(), ("probe",),
            stage="planning",
        )
        source_names = self.registry.names()
        for name in source_names:
            source = self.registry.get(name)
            flow.add(
                f"acquire:{name}",
                lambda inputs, s=source: (
                    self._acquire(s)
                    if s.name in inputs["plan"].sources
                    else Table(s.name, Schema(()))
                ),
                ("plan",),
                stage="extraction",
            )
            flow.add(
                f"match:{name}",
                lambda inputs, n=name: self._match(
                    inputs[f"acquire:{n}"], inputs["plan"]
                ),
                (f"acquire:{name}", "plan"),
                stage="matching",
            )
            flow.add(
                f"mapping:{name}",
                lambda inputs, n=name: self._mapping(
                    n, inputs[f"match:{n}"], inputs[f"acquire:{n}"]
                ),
                (f"match:{name}", f"acquire:{name}"),
                stage="mapping",
            )
            flow.add(
                f"mapped:{name}",
                lambda inputs, n=name: self._mapped(
                    inputs[f"mapping:{n}"], inputs[f"acquire:{n}"]
                ),
                (f"mapping:{name}", f"acquire:{name}"),
                stage="mapping",
            )
            flow.add(
                f"quality:{name}",
                lambda inputs, n=name: self._source_quality(
                    n, inputs[f"mapped:{n}"]
                ),
                (f"mapped:{name}",),
                stage="quality",
            )
        mapping_deps = tuple(f"mapping:{n}" for n in source_names)
        quality_deps = tuple(f"quality:{n}" for n in source_names)
        flow.add(
            "select",
            lambda inputs: self._select(
                inputs["plan"],
                {
                    name: inputs[f"mapping:{name}"]
                    for name in source_names
                },
            ),
            ("plan",) + mapping_deps + quality_deps,
            stage="selection",
        )
        flow.add(
            "translate",
            lambda inputs: self._translate(
                inputs["select"],
                {name: inputs[f"mapped:{name}"] for name in source_names},
            ),
            ("select",) + tuple(f"mapped:{n}" for n in source_names),
            stage="mapping",
        )
        flow.add(
            "resolve",
            lambda inputs: self._resolve(inputs["translate"], inputs["plan"]),
            ("translate", "plan"),
            stage="resolution",
        )
        flow.add(
            "fuse",
            lambda inputs: self._fuse(inputs["resolve"], inputs["plan"]),
            ("resolve", "plan"),
            stage="fusion",
        )
        flow.add(
            "repair",
            lambda inputs: self._repair(inputs["fuse"], inputs["plan"]),
            ("fuse", "plan"),
            stage="repair",
        )
        return flow

    @property
    def flow(self) -> Dataflow:
        """The pipeline dataflow (built on first use)."""
        if self._flow is None:
            if not len(self.registry):
                raise PlanningError("no sources registered")
            self._flow = self._build_flow()
        return self._flow

    # -- running ----------------------------------------------------------

    def run(self, validate: bool | None = None) -> WrangleResult:
        """Execute (or incrementally refresh) the pipeline.

        ``validate`` overrides the wrangler's standing :attr:`validate`
        flag for this run only.  ``run(validate=True)`` guarantees the
        full pre-execution gate — structure validation, schema-flow type
        checking, purity certification — runs against the plan this run
        executes, even when the plan node is already memoised (a fresh
        composition would be gated inside ``_compose_plan`` anyway).
        """
        if validate is None:
            return self._run()
        previous = self.validate
        self.validate = validate
        try:
            if validate:
                flow = self.flow
                if flow.is_clean("plan"):
                    self._gate(flow.value("plan")).raise_on_error()
            return self._run()
        finally:
            self.validate = previous

    #: Stage nodes journaled as they land under checkpointing.  Table-valued
    #: nodes snapshot their payload (replayable by id); the others commit
    #: as progress markers — resume recomputes them deterministically
    #: from the restored acquisitions without touching any source.
    _DURABLE_NODES = ("select", "translate", "resolve", "fuse", "repair")

    def _checkpoint_node(self, name: str, value) -> None:
        """Dataflow observer: journal one landed stage node."""
        log = self._ingest_log
        if log is None or name not in self._DURABLE_NODES:
            return
        payload = None
        if isinstance(value, Table):
            payload = value
        elif name == "repair" and value is not None:
            payload = value.table
        log.commit(f"node:{name}", data={"node": name}, payload=payload)

    def _run(self) -> WrangleResult:
        flow = self.flow
        runs_before = flow.total_runs()
        self._arm_run_deadline()
        ingest_log = None
        if self._checkpoints is not None:
            ingest_log = self._checkpoints.begin_run(self._plan_signature())
            self._ingest_log = ingest_log
            flow.on_node_computed(self._checkpoint_node)
        try:
            return self._run_body(flow, runs_before, ingest_log)
        finally:
            self._ingest_log = None

    def _run_body(
        self,
        flow: Dataflow,
        runs_before: int,
        ingest_log,
    ) -> WrangleResult:
        with self.telemetry.tracer.span("wrangle.run") as run_span:
            repair_result = flow.pull("repair")
            fused = flow.value("fuse")
            wrangled = (
                repair_result.table if repair_result is not None else fused
            )
            plan = flow.value("plan")
            with self.telemetry.tracer.span(
                "quality:wrangled", stage="quality"
            ):
                quality = self.analyser.analyse(
                    wrangled,
                    user=self.user,
                    master_key=self.master_key,
                    join_attribute=self.join_attribute,
                    date_attribute=self.date_attribute,
                    constraints=self.constraints or None,
                    annotate_as="table:wrangled",
                )
            run_span.set_attribute(
                "nodes_recomputed", flow.total_runs() - runs_before
            )
        source_reports = {
            name: flow.value(f"quality:{name}")
            for name in self.registry.names()
            if flow.is_clean(f"quality:{name}")
        }
        # Velocity monitoring: snapshot the wrangled data whenever it was
        # actually recomputed, so consecutive runs are diffable.
        produced = flow.runs("fuse") + flow.runs("repair")
        if produced != self._recorded_fuse_runs:
            self.history.record(wrangled)
            self._recorded_fuse_runs = produced
        self._enforce_quorum()
        ingest_export = None
        if ingest_log is not None:
            ingest_log.complete(payload=wrangled)
            ingest_export = ingest_log.export()
        return WrangleResult(
            table=wrangled,
            plan=plan,
            quality=quality,
            mappings=flow.value("select") or [],
            resolution=flow.value("resolve"),
            repair=repair_result,
            source_reports=source_reports,
            access_cost=self.registry.total_cost(),
            feedback_cost=self.feedback.total_cost(),
            telemetry=self.telemetry.snapshot(dataflow=flow.node_stats()),
            degradation=(
                self.degradation.export()
                if self.degradation is not None
                else None
            ),
            ingest=ingest_export,
        )

    def _arm_run_deadline(self) -> None:
        """Start the per-run time budget on every resilient source."""
        policy = self._resilience_policy
        if policy is None or policy.run_deadline is None:
            return
        deadline = Deadline(
            self.telemetry.clock, policy.run_deadline, label="wrangle run"
        )
        for name in self.registry.names():
            source = self.registry.get(name)
            if isinstance(
                source, (ResilientStructuredSource, ResilientDocumentSource)
            ):
                source.engine.run_deadline = deadline

    def _enforce_quorum(self) -> None:
        """Raise :class:`DegradedRunError` when too few sources survived."""
        if self.degradation is None or self._quorum <= 0:
            return
        names = self.registry.names()
        survivors = self.degradation.survivors(names)
        required = (
            self._quorum
            if self._quorum >= 1
            else self._quorum * len(names)
        )
        if len(survivors) < required:
            dead = self.degradation.dead(names)
            raise DegradedRunError(
                f"only {len(survivors)}/{len(names)} sources survived "
                f"acquisition (quorum {self._quorum:g}); dead: "
                f"{', '.join(dead)}",
                dead=tuple(dead),
            )

    # -- pay-as-you-go --------------------------------------------------------

    def apply_feedback(self, items: Sequence[Feedback]) -> None:
        """Record feedback, propagate it everywhere, invalidate precisely.

        Each feedback type dirties only the dataflow nodes it can affect;
        the next :meth:`run` recomputes just that cone (experiment E6
        measures the savings).
        """
        flow = self.flow
        self.feedback.extend(list(items))
        self.telemetry.metrics.counter("feedback.items").increment(len(items))
        wrangled = self.working.get("table", "wrangled")
        propagator = FeedbackPropagator(
            self.feedback,
            self.registry,
            self.working.annotations,
            metrics=self.telemetry.metrics,
        )
        with self.telemetry.tracer.span(
            "feedback.apply", items=len(items)
        ) as feedback_span:
            report = propagator.propagate(wrangled=wrangled)
        self._match_evidence = dict(report.match_evidence)

        invalidated: set[str] = set()
        for item in items:
            if isinstance(item, ValueFeedback):
                # Reliabilities moved: fusion weights and source scores.
                invalidated.update(("fuse", "select"))
            elif isinstance(item, MatchFeedback):
                if item.source_name and item.source_name in self.registry:
                    invalidated.add(f"match:{item.source_name}")
                else:
                    for name in self.registry.names():
                        invalidated.add(f"match:{name}")
            elif isinstance(item, DuplicateFeedback):
                invalidated.add("resolve")
            elif isinstance(item, RelevanceFeedback):
                invalidated.add("select")
            elif isinstance(item, ExtractionFeedback):
                for name in self.registry.names():
                    if isinstance(self.registry.get(name), DocumentSource):
                        invalidated.add(f"acquire:{name}")
        # Feedback also informs *source selection* (Section 2.4): if the
        # shifted beliefs say a materially better source set exists,
        # replan — acquisition of newly selected sources is then a
        # legitimate, paid-for recomputation.  The 10% profit hysteresis
        # keeps near-tie oscillations from thrashing the pipeline.
        # The previous run's plan is genuinely what is wanted here: the
        # comparison asks whether feedback moved the beliefs enough to
        # beat the plan the current outputs were computed with.
        current_plan = flow.value("plan", allow_stale=True)
        if current_plan is not None:
            fresh_plan = self.planner.plan(
                self.user, self.data, self.registry, self.working.annotations
            )
            if set(fresh_plan.sources) != set(current_plan.sources):
                from repro.selection.source_selection import SourceSelector

                profiles = {
                    p.name: p
                    for p in SourceSelector.profiles_from_registry(
                        self.registry, self.working.annotations
                    )
                }
                selector = self.planner.selector

                def profit(names: Sequence[str]) -> float:
                    chosen = [profiles[n] for n in names if n in profiles]
                    return selector.gain(chosen) - sum(p.cost for p in chosen)

                if profit(fresh_plan.sources) > 1.1 * profit(
                    current_plan.sources
                ) + 1.0:
                    invalidated.add("plan")

        for node in sorted(invalidated):
            flow.invalidate(node)
        feedback_span.set_attribute("invalidated", sorted(invalidated))
        self.telemetry.metrics.counter(
            "feedback.nodes_invalidated"
        ).increment(len(invalidated))

    def refresh_source(self, source_name: str) -> None:
        """Re-acquire one (volatile) source on the next run — Velocity.

        Only that source's acquisition cone recomputes; the other sources'
        extractions, matches, and mappings stay memoised.
        """
        if source_name not in self.registry:
            raise PlanningError(f"no source registered under {source_name!r}")
        self.flow.invalidate(f"acquire:{source_name}")

    def relations(self) -> dict[str, Table]:
        """The queryable relations of the working data (dataspace view).

        ``wrangled`` plus every raw and mapped source table, addressable
        as ``raw/<source>`` and ``mapped/<source>`` — "storing intermediate
        results of the ETL process for on-demand recombination"
        (Section 4.2).
        """
        return {key: table for key, table in self.working.items("table")}

    def query(self, cq) -> list[dict[str, object]]:
        """Run a conjunctive query over the working-data relations.

        Relations resolve by the names :meth:`relations` exposes; the
        wrangled data is the relation ``"wrangled"``.
        """
        return cq.evaluate(self.relations())

    def changes_since_last_run(self):
        """Typed diff between the two most recent wrangled snapshots.

        The payoff of Velocity handling: after :meth:`refresh_source` (or
        feedback) and a re-run, this reports exactly which entities
        appeared, disappeared, or changed value — price moves included.
        """
        return self.history.diff_latest()

    def recompute_count(self) -> int:
        """Total node computations so far (the incrementality metric)."""
        return self.flow.total_runs()
