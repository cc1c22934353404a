"""The Wrangler: the abstract architecture of Figure 1, made executable.

``Wrangler`` wires Data Sources → Data Extraction → Data Integration →
Wrangled Data as an **incremental dataflow**, with the Working Data
(tables, matches, mappings, wrappers, quality annotations, feedback) in
the middle and the user/data contexts informing every step:

* the autonomic planner composes the pipeline (no hand-wired workflow);
* every component reads and writes the shared working data;
* feedback propagates to all components and invalidates exactly the
  dataflow nodes it affects — re-running is cheap, as Section 2.4 demands.

The pipeline's *shape* is declared once, by :func:`pipeline_shape` next
to the :data:`STAGES` label of every node kind; the ``Wrangler`` only
composes it, binding each kind ``k`` to its stage body
``Wrangler._stage_k``.

Stage bodies compose, layers decide: a body gathers its inputs, calls the
layer that owns the algorithm and files the result.  The policies — ER
threshold refit (:func:`repro.resolution.er.refit_rule`), value-verdict
re-fusion (``EntityFuser.apply_verdicts``), replan profit
(``AutonomicPlanner.replan_pays``), quorum and run deadline
(:mod:`repro.resilience`), majority votes (``FeedbackStore``) — live, and
are unit-tested, behind those layers.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import replace
from functools import partial
from typing import Any, Mapping, Sequence

from repro.analysis import typecheck
from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.core.dataflow import Dataflow, same_value
from repro.core.history import SnapshotHistory
from repro.core.planner import AutonomicPlanner, WranglePlan
from repro.core.result import WrangleResult
from repro.errors import DataflowError, PlanningError, WranglingError
from repro.model.annotations import Dimension, QualityAnnotation
from repro.extraction.induction import ExampleAnnotation, auto_induce, induce_wrapper
from repro.extraction.repair import WrapperRepairer
from repro.extraction.wrapper import Pages
from repro.feedback.propagation import FeedbackPropagator
from repro.feedback.store import FeedbackStore
from repro.feedback.types import DIRTIES, Feedback
from repro.fusion.fuse import EntityFuser
from repro.mapping.mapping import Mapping
from repro.mapping.selection import MappingSelector
from repro.matching.schema_matching import SchemaMatcher
from repro.model.records import Table
from repro.model.schema import Schema
from repro.obs import Telemetry
from repro.quality.constraints import Constraint
from repro.quality.metrics import QualityAnalyser, QualityReport
from repro.quality.repair import repair_table
from repro.resilience import AccessGuard, DegradationLedger, RetryPolicy
from repro.resolution.comparison import ScoringContext, profiled_comparator
from repro.resolution.er import EntityResolver, refit_rule
from repro.sources.base import (
    PROBE_COST_FRACTION,
    DataSource,
    DocumentSource,
    StructuredSource,
)
from repro.sources.registry import SourceRegistry
from repro.model.workingdata import WorkingData, content_digest

__all__ = ["STAGES", "Wrangler", "pipeline_shape"]

#: The nodes whose bodies read source beliefs — annotations and registry
#: trust — outside their ``inputs``.  A stage body that writes a belief
#: forces them (:meth:`Wrangler._beliefs_moved`), so early cutoff never
#: leaves them on beliefs that have since moved.
BELIEF_READERS = ("select", "fuse")

#: Each dataflow node kind's pipeline stage, the label its spans and
#: telemetry carry.  Node names are ``kind`` or ``kind:source``.
STAGES: Mapping[str, str] = {
    "probe": "probe",
    "plan": "planning",
    "acquire": "extraction",
    "match": "matching",
    "mapping": "mapping",
    "mapped": "mapping",
    "quality": "quality",
    "select": "selection",
    "rank": "selection",
    "translate": "mapping",
    "refit": "resolution",
    "resolve": "resolution",
    "fuse": "fusion",
    "repair": "repair",
}


def pipeline_shape(
    source_names: Sequence[str],
) -> dict[str, tuple[str, ...]]:
    """Figure 1's wiring over ``source_names``: ``{node: dependencies}``.

    The one declaration of the pipeline's shape.
    :meth:`Wrangler._build_flow` adds these nodes in this (insertion, and
    already topological) order, binding each node's kind to its stage
    body and its :data:`STAGES` label.  A new stage is one entry here,
    one ``STAGES`` row and one stage body.
    """
    dependencies: dict[str, tuple[str, ...]] = {
        "probe": (),
        "plan": ("probe",),
    }
    for name in source_names:
        dependencies[f"acquire:{name}"] = ("plan",)
        dependencies[f"match:{name}"] = (f"acquire:{name}", "plan")
        dependencies[f"mapping:{name}"] = (f"match:{name}",)
        dependencies[f"mapped:{name}"] = (
            f"mapping:{name}",
            f"acquire:{name}",
        )
        dependencies[f"quality:{name}"] = (f"mapped:{name}",)
    dependencies["select"] = (
        "plan",
        *(f"mapping:{name}" for name in source_names),
        *(f"quality:{name}" for name in source_names),
    )
    dependencies["rank"] = ("select",)
    dependencies["translate"] = (
        "rank",
        *(f"mapped:{name}" for name in source_names),
    )
    dependencies["refit"] = ("translate", "plan")
    dependencies["resolve"] = ("translate", "plan", "refit")
    dependencies["fuse"] = ("resolve", "plan", "rank")
    dependencies["repair"] = ("fuse", "plan")
    return dependencies


def _copy_report(report: QualityReport) -> QualityReport:
    """``report`` with dicts of its own."""
    return replace(
        report, scores=dict(report.scores), details=dict(report.details)
    )


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
        telemetry: Telemetry | None = None,
    ) -> None:
        self.user = user
        self.data = data or DataContext()
        self.constraints = list(constraints)
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
        self.planner.selector.metrics = self.telemetry.metrics
        self.analyser = QualityAnalyser(
            self.data,
            self.working.annotations,
            today=today,
            clock=self.telemetry.clock,
        )
        self._examples: dict[str, list[ExampleAnnotation]] = {}
        #: Resilience configuration, set by :meth:`resilience`.  With a
        #: guard every source access goes through it (:meth:`_access`),
        #: and the ledger records acquisition.
        self._guard: AccessGuard | None = None
        self._quorum: float = 0.0
        self.degradation: DegradationLedger | None = None
        self._flow: Dataflow | None = None
        self._match_evidence: dict[tuple[str, str], list[bool]] = {}
        #: Durable-ingestion configuration, set by :meth:`checkpointing`.
        #: When a store is attached every probe and acquisition commits a
        #: checkpoint and an interrupted run resumes from the last
        #: committed step.
        self._checkpoints = None
        #: The open :class:`~repro.ingest.checkpoint.RunLog` while a
        #: checkpointed run executes (None otherwise).
        self._ingest_log = None
        self.history = SnapshotHistory()
        self._recorded_verifications = -1
        #: ER and fusion work one run leaves for the next (see
        #: docs/INCREMENTAL.md): the scoring context the last resolve
        #: decided with, the context ``refit`` opened for the next
        #: resolve with the inputs it was opened on, and the last fuser.
        self._resolved_scores: ScoringContext | None = None
        self._open_scores: (
            tuple[Table, WranglePlan, ScoringContext] | None
        ) = None
        self._fuser: EntityFuser | None = None
        #: Per source, the last ``mapped`` apply:
        #: ``(mapping, acquired table, translated table)``.
        self._mapped: dict[str, tuple[Mapping, Table, Table]] = {}
        #: The last run's output assessment: ``(objects read, compared by
        #: identity; values read; report)`` — see :meth:`_assess_wrangled`.
        self._assessed: tuple[tuple, tuple, QualityReport] | None = None

    # -- source management ------------------------------------------------

    def add_source(self, source: DataSource) -> "Wrangler":
        """Register a source (structured or document)."""
        self.registry.register(source)
        self._flow = None  # topology changed; rebuild on next run
        return self

    def resilience(
        self, policy: RetryPolicy | None = None, *, quorum: float = 0.0
    ) -> "Wrangler":
        """Guard acquisition with retries, breakers, and deadlines.

        Every source access — registered sources and future ones alike —
        goes through one :class:`~repro.resilience.AccessGuard` driven by
        ``policy`` (default :class:`RetryPolicy`); a later call replaces
        the guard, so its policy covers every source.  Attempts and
        outcomes land in the degradation ledger, surfaced as
        ``WrangleResult.degradation``.

        ``quorum`` is how many sources must survive acquisition for a run
        to count as a success: a fraction of the registry when below 1, an
        absolute count otherwise.  A run falling short raises
        :class:`~repro.errors.DegradedRunError`; the default of 0 never
        raises — the paper's pay-as-you-go stance is to complete with
        downgraded quality annotations rather than fail.
        """
        self._quorum = quorum
        if self.degradation is None:
            self.degradation = DegradationLedger()
        self._guard = AccessGuard(policy, self.telemetry, self.degradation)
        self._flow = None  # acquisition re-runs under the new policy
        return self

    def checkpointing(self, store) -> "Wrangler":
        """Journal run progress durably so an interrupted run resumes.

        ``store`` is a :class:`~repro.ingest.checkpoint.CheckpointStore`.
        With it attached, every probe and acquisition commits (payload
        snapshot + per-source watermark), sources with a declared delta
        cursor re-fetch only rows past the committed watermark, and the
        next run under the same plan signature restores every committed
        step and recomputes the dataflow from them — no source access is
        ever paid for twice.  The run's summary lands on
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

    # -- per-layer helpers (shared by the probe and the per-source nodes) ---

    def _access(self, name: str, op: str, fn):
        """Run ``fn``, one ``op`` access of source ``name`` — through the
        resilience guard when :meth:`resilience` set one."""
        return fn() if self._guard is None else self._guard.call(name, op, fn)

    def _payload(self, source: DataSource, step: str):
        """This run's ``probe`` or ``acquire`` payload of ``source`` —
        restored or live.

        Under checkpointing every access is durable: a step committed by
        a prior (killed) attempt is restored without touching (or
        re-charging) the source; a live probe commits as its own step; a
        live fetch goes through
        :func:`~repro.ingest.incremental.acquire_durable` — delta when
        the committed watermark allows, committed before the value is
        handed to the pipeline.
        """
        log = self._ingest_log
        if log is None:
            if step == "probe":
                return self._access(source.name, "probe", source.probe)
            return self._access(source.name, "fetch", source.fetch)
        restored = log.restored(f"{step}:{source.name}")
        if restored is not None:
            return restored
        if step == "probe":
            value = self._access(source.name, "probe", source.probe)
            log.commit(
                f"probe:{source.name}",
                data={"fraction": PROBE_COST_FRACTION},
                payload=value,
            )
            return value
        from repro.ingest.incremental import acquire_durable

        return acquire_durable(source, log, self.telemetry, self._access)

    def _extract(self, source: DataSource, step: str) -> Table | None:
        """One access of ``source`` as a typed table (``None`` for a
        source that is neither structured nor a document source).

        ``step`` is ``"acquire"`` (the full fetch: every example, the
        wrapper repaired against the data context and filed) or
        ``"probe"``.  Probing must stay cheap: the bootstrap wrapper is
        induced from the documents the probe already paid for — examples
        pointing at pages outside the sample simply don't constrain it.
        """
        if isinstance(source, StructuredSource):
            return self._payload(source, step).infer_schema()
        if not isinstance(source, DocumentSource):
            return None
        # One page set for the call: induction, extraction and repair
        # parse each page inside their own spans, once between them, and
        # the parsed pages go when this returns.
        documents = Pages.of(self._payload(source, step))
        examples = self._examples.get(source.name, [])
        if step == "probe":
            sampled = {doc.url for doc in documents}
            examples = [e for e in examples if e.url in sampled]
        if examples:
            wrapper = induce_wrapper(documents, examples, source=source.name)
        else:
            wrapper = auto_induce(documents, source=source.name)
        if step == "probe":
            return wrapper.extract(documents).infer_schema()
        wrapper, table, report = WrapperRepairer(self.data).repair(
            wrapper, documents
        )
        self.working.put("wrapper", source.name, wrapper)
        self.working.put("report", f"wrapper-repair/{source.name}", report)
        return table.infer_schema()

    def _correspond(self, table: Table, plan: WranglePlan | None = None) -> list:
        """``table``'s correspondences to the target schema: by the
        plan's matcher, or — probing, before any plan exists — by the
        bootstrap matcher (every channel, threshold 0.5)."""
        if plan is None:
            matcher = SchemaMatcher(self.data, threshold=0.5)
        else:
            matcher = SchemaMatcher(
                self.data,
                channels=plan.matcher_channels,
                threshold=plan.match_threshold,
                feedback=self._match_evidence,
            )
        return matcher.match(table, self.user.target_schema)

    def _assess(self, table: Table, annotate_as: str, constraints=None):
        """The quality report of one table in the target schema, its
        scores annotated onto ``annotate_as`` in the working data."""
        return self.analyser.analyse(
            table,
            user=self.user,
            master_key=self.master_key,
            join_attribute=self.join_attribute,
            date_attribute=self.date_attribute,
            constraints=constraints,
            annotate_as=annotate_as,
        )

    def _assess_wrangled(self, wrangled: Table) -> QualityReport:
        """The quality report of the run's output, annotated onto
        ``table:wrangled``.

        A run whose fuse and repair were cut off hands back the very
        table the last run assessed; when everything the analysis reads
        is also unchanged — constraints, user, master table, join and
        date attributes, the analyser's ``today`` — the last report is
        filed again instead of measured again (counted on
        ``quality.reports_reused``), so the annotation store grows
        exactly as a fresh analysis would grow it.
        """
        analyser = self.analyser
        context = analyser.context
        master = (
            context.master_data.get(self.master_key)
            if context is not None and self.master_key is not None
            else None
        )
        held = (wrangled, self.user, master, analyser, analyser.annotations)
        read = (
            len(wrangled),
            None if master is None else len(master),
            tuple(self.constraints),
            self.master_key,
            self.join_attribute,
            self.date_attribute,
            analyser.today,
            analyser.staleness_horizon_days,
        )
        last = self._assessed
        if (
            last is not None
            and all(a is b for a, b in zip(last[0], held))
            and last[1] == read
        ):
            analyser.annotate(last[2])
            self.telemetry.metrics.counter("quality.reports_reused").increment()
            return _copy_report(last[2])
        report = self._assess(
            wrangled, "table:wrangled", self.constraints or None
        )
        self._assessed = (held, read, _copy_report(report))
        return report

    def _annotate_source(
        self, name: str, dimension: Dimension, score: float,
        confidence: float, origin: str,
    ) -> None:
        """Write one quality belief about a source into the working data."""
        self.working.annotations.add(
            QualityAnnotation(
                f"source:{name}", dimension, score,
                confidence=confidence, origin=origin,
            )
        )
        self._beliefs_moved()

    def _beliefs_moved(self) -> None:
        """Force the :data:`BELIEF_READERS`: a source belief was written."""
        if self._flow is not None:
            for node in BELIEF_READERS:
                self._flow.invalidate(node)

    # -- stage bodies: ``_stage_<kind>`` computes one node of that kind -----
    #
    # from ``inputs`` — the values of the dependencies
    # :func:`pipeline_shape` declares for it — and files the result in the
    # working data; per-source kinds take the source name first.

    def _stage_probe(self, inputs: dict[str, Any]) -> dict[str, object]:
        """Cheaply sample every source and annotate what the sample shows.

        Section 2.3's "use all the available information": before spending
        budget, each source is probed (a fraction of a full access), the
        sample is run through the same extract / match / map / assess
        bodies the per-source nodes use, and its quality — accuracy
        against master data, timeliness, completeness — is written into
        the working data so that source selection is informed rather than
        cost-blind.
        """
        reports: dict[str, object] = {}
        for name in self.registry.names():
            source = self.registry.get(name)
            try:
                sample = self._extract(source, "probe")
                if sample is None:
                    continue
                mapping = Mapping.from_correspondences(
                    name, self.user.target_schema, self._correspond(sample)
                )
                # File the statically usable probe artifacts: the schema
                # the sample exposed and the bootstrap mapping.  The
                # pre-execution type checker reads these to thread
                # schemas through the plan without touching any source.
                self.working.put("schema", f"probe/{name}", sample.schema)
                self.working.put("mapping", f"probe/{name}", mapping)
                mapped = mapping.apply(sample)
                reports[name] = self._assess(mapped, f"source:{name}")
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
                    self._annotate_source(
                        name, Dimension.COMPLETENESS, coverage, 1.0,
                        "probe-coverage",
                    )
            except WranglingError:
                # A source whose sample cannot even be parsed or matched is
                # itself a quality signal.
                self._annotate_source(
                    name, Dimension.ACCURACY, 0.1, 0.5, "probe-failure"
                )
        self.working.put("report", "probes", reports)
        self._beliefs_moved()
        return reports

    def _stage_plan(self, inputs: dict[str, Any]) -> WranglePlan:
        """Compose the plan and refuse it on any error-severity finding
        (:class:`~repro.errors.PlanValidationError`) — before any source
        is fully accessed."""
        plan, report = self._compose()
        report.raise_on_error()
        return plan

    def _stage_acquire(self, name: str, inputs: dict[str, Any]) -> Table:
        """Fetch one planned source, degrading gracefully when it breaks.

        "Veracity represents the uncertainty that is inevitable" — and
        with thousands of sources, some will be down, malformed, or
        unwrappable at any given time.  A failing source yields an empty
        table, a near-zero reliability annotation, and a failure record in
        the working data; the rest of the pipeline proceeds.
        """
        if name not in inputs["plan"].sources:
            return Table(name, Schema(()))
        source = self.registry.get(name)
        try:
            table = self._extract(source, "acquire")
        except WranglingError as failure:
            self.working.put("failure", name, str(failure))
            self._annotate_source(
                name, Dimension.ACCURACY, 0.05, 0.9, "acquisition-failure"
            )
            self.registry.observe(name, False, weight=2.0)
            table = Table(name, Schema(()))
        if table is None:
            raise PlanningError(
                f"unsupported source type: {type(source).__name__}"
            )
        self.working.put("table", f"raw/{name}", table)
        # Acquisition provenance, as Section 4.2 stores every intermediate:
        # what it took (retries, backoff, breaker state) to get — or fail
        # to get — this source's data this run.
        if self.degradation is not None:
            entry = self.degradation.disposition(name)
            if entry is not None:
                self.working.put("resilience", name, entry.to_dict())
        return table

    def _stage_match(self, name: str, inputs: dict[str, Any]) -> list:
        table = inputs[f"acquire:{name}"]
        correspondences = self._correspond(table, inputs["plan"])
        self.working.put("match", table.name, correspondences)
        return correspondences

    def _stage_mapping(self, name: str, inputs: dict[str, Any]) -> Mapping:
        """The source's mapping — the previous one, when the recomputed
        mapping differs from it only in its minted id: ``mapped`` then
        reuses what that mapping translated."""
        mapping = Mapping.from_correspondences(
            name, self.user.target_schema, inputs[f"match:{name}"]
        )
        previous = self.working.get("mapping", name)
        if previous is not None and same_value(
            previous, replace(mapping, mapping_id=previous.mapping_id)
        ):
            mapping = previous
        self.working.put("mapping", name, mapping)
        return mapping

    def _stage_mapped(self, name: str, inputs: dict[str, Any]) -> Table:
        mapping, table = inputs[f"mapping:{name}"], inputs[f"acquire:{name}"]
        mapped = mapping.apply(
            table, previous=self._mapped.get(name),
            metrics=self.telemetry.metrics,
        )
        self._mapped[name] = (mapping, table, mapped)
        self.working.put("table", f"mapped/{name}", mapped)
        return mapped

    def _stage_quality(self, name: str, inputs: dict[str, Any]) -> object:
        report = self._assess(inputs[f"mapped:{name}"], f"source:{name}")
        self.working.put("report", f"source/{name}", report)
        self._beliefs_moved()
        return report

    def _stage_select(self, inputs: dict[str, Any]) -> list:
        selector = MappingSelector(self.registry, self.working.annotations)
        candidates = [
            inputs[f"mapping:{name}"]
            for name in inputs["plan"].sources
            if f"mapping:{name}" in inputs
        ]
        # Acquisition already spent the budget; selection filters on
        # floors and ranks by the context's weights.
        unbounded = self.user.with_budget(float("inf"))
        selected = selector.select(candidates, unbounded)
        self.working.put("mapping", "selected", [s.mapping.mapping_id for s in selected])
        return selected

    def _stage_rank(self, inputs: dict[str, Any]) -> tuple[str, ...]:
        """The selected sources, best first.  Its own node, so a verdict
        that moves utilities but not the order stops here."""
        return tuple(scored.mapping.source_name for scored in inputs["select"])

    def _stage_translate(self, inputs: dict[str, Any]) -> Table:
        # The selected sources' rows in registry order (the order of the
        # ``mapped:`` inputs), not rank order: a verdict that only
        # re-ranks the selection leaves the table, and so ER, unchanged.
        # The rank reaches fusion directly (``precedence``).
        selected = set(inputs["rank"])
        translated = Table("translated", self.user.target_schema)
        for key, table in inputs.items():
            kind, __, name = key.partition(":")
            if kind != "mapped" or name not in selected or table is None:
                continue
            for record in table:
                if self.user.in_scope(record):
                    translated.append(record)
        self.working.put("table", "translated", translated)
        return translated

    def _scoring(self, translated: Table, plan: WranglePlan) -> ScoringContext:
        """The one scoring context ``refit`` and ``resolve`` share over
        ``translated``: the comparator ER decides with, read through to
        the tables the last resolve left."""
        opened = self._open_scores
        if (
            opened is None
            or opened[0] is not translated
            or opened[1] is not plan
        ):
            comparator = profiled_comparator(
                self.user.target_schema,
                translated,
                attributes=list(plan.er_attributes) or None,
            )
            scores = ScoringContext(comparator, previous=self._resolved_scores)
            opened = self._open_scores = (translated, plan, scores)
        return opened[2]

    def _stage_refit(self, inputs: dict[str, Any]):
        """The plan's ER threshold refitted on the duplicate-labelled
        pairs, scored by the comparator the resolver decides with.  Its
        own node, so a verdict that leaves the rule where it was stops
        here instead of re-resolving."""
        translated, plan = inputs["translate"], inputs["plan"]
        return refit_rule(
            plan.er_threshold,
            self._scoring(translated, plan),
            translated,
            self.feedback.duplicate_labels(),
        )

    def _stage_resolve(self, inputs: dict[str, Any]):
        translated, plan = inputs["translate"], inputs["plan"]
        scores = self._scoring(translated, plan)
        resolver = EntityResolver(
            comparator=scores,
            rule=inputs["refit"],
            metrics=self.telemetry.metrics,
        )
        result = resolver.resolve(
            translated, previous=self.working.get("entity", "clusters")
        )
        # The next run's context reads through to this one, which keeps
        # only what this run touched.
        scores.detach()
        self._resolved_scores, self._open_scores = scores, None
        self.working.put("entity", "clusters", result)
        return result

    def _source_reliabilities(self) -> dict[str, float]:
        """Per-source trust for fusion: the feedback-driven posterior
        blended with whatever the quality analyses (probes included) have
        annotated — all the available information, not just one channel."""
        return {
            source.name: self.registry.trust(
                source.name, self.working.annotations
            )
            for source in self.registry
        }

    def _stage_fuse(self, inputs: dict[str, Any]) -> Table:
        resolution, plan = inputs["resolve"], inputs["plan"]
        fuser = EntityFuser(
            self.user.target_schema,
            reliabilities=self._source_reliabilities(),
            default_strategy=plan.fusion_strategy,
            strategy_overrides=plan.fusion_overrides,
            recency_attribute=self.date_attribute,
            precedence=inputs["rank"],
            metrics=self.telemetry.metrics,
        )
        fused = fuser.fuse(resolution.clusters, previous=self._fuser)
        self._fuser = fuser
        # Value feedback is folded into the fused data itself: a cell its
        # judges rejected takes their correction, or is re-fused without
        # the rejected claims.
        return fuser.apply_verdicts(
            fused, resolution.clusters, self.feedback.rejected_values()
        )

    def _stage_repair(self, inputs: dict[str, Any]):
        fused, plan = inputs["fuse"], inputs["plan"]
        if not plan.run_repair or not self.constraints:
            return None
        return repair_table(fused, self.constraints)

    # -- dataflow assembly ----------------------------------------------------

    def _compose(self):
        """Plan from the current beliefs and statically gate the plan:
        ``(plan, report)`` — the one gate call site.

        Context validation (``PV0xx``), type checking over the probe
        artifacts (``TC0xx``) and the cost checks (``CC0xx``) run as
        one gate:
        :func:`repro.analysis.typecheck.run_preflight`.
        """
        plan = self.planner.plan(
            self.user, self.data, self.registry, self.working.annotations
        )
        report = typecheck.run_preflight(
            plan=plan,
            user=self.user,
            data=self.data,
            registry=self.registry,
            working=self.working,
            master_key=self.master_key,
            date_attribute=self.date_attribute,
        )
        return plan, report

    def preflight(self):
        """The full static gate's report, without executing the pipeline.

        Probes the sources (the cheap sample pass), composes a plan and
        gates it exactly as :meth:`run` gates the plans it composes.
        Returns the :class:`~repro.analysis.validator.ValidationReport`
        instead of raising, so callers (e.g. ``tools/typecheck.py``) can
        render every finding.  The one way to inspect the gate, or —
        ``preflight().raise_on_error()`` — to re-gate after changing what
        a memoised plan was gated against.
        """
        self.flow.pull("probe")
        return self._compose()[1]

    def _build_flow(self) -> Dataflow:
        """Compose the declared pipeline: one node per entry of
        :func:`pipeline_shape`, computed by its kind's ``_stage_<kind>``
        body and labelled with its kind's :data:`STAGES` entry."""
        flow = Dataflow(telemetry=self.telemetry)
        shape = pipeline_shape(self.registry.names())
        for node, dependencies in shape.items():
            kind, _, source_name = node.partition(":")
            body = getattr(self, f"_stage_{kind}")
            if source_name:
                body = partial(body, source_name)
            flow.add(node, body, dependencies, stage=STAGES[kind])
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

    def run(self) -> WrangleResult:
        """Execute (or incrementally refresh) the pipeline.

        Every plan the run composes is gated before any source is fully
        accessed (see :meth:`_compose`); a memoised plan was gated when
        it was composed — :meth:`preflight` re-gates on demand.
        """
        flow = self.flow
        runs_before = flow.total_runs()
        if self._guard is not None:
            self._guard.arm()
        if self._checkpoints is not None:
            self._ingest_log = self._checkpoints.begin_run(
                self._plan_signature()
            )
        try:
            with self.telemetry.tracer.span("wrangle.run") as run_span:
                repair_result = flow.pull("repair")
                fused = flow.value("fuse")
                wrangled = (
                    repair_result.table if repair_result is not None else fused
                )
                # Filed here, not by fuse or repair: either may be cut off
                # while the other re-runs.
                self.working.put("table", "wrangled", wrangled)
                with self.telemetry.tracer.span(
                    "quality:wrangled", stage="quality"
                ):
                    quality = self._assess_wrangled(wrangled)
                run_span.set_attribute(
                    "nodes_recomputed", flow.total_runs() - runs_before
                )
            # Velocity monitoring: snapshot the wrangled data whenever this
            # run brought it up to date — recomputed or cut off as
            # unchanged — so the latest diff is always this run's.
            verified = flow.verifications("fuse") + flow.verifications("repair")
            if verified != self._recorded_verifications:
                self.history.record(wrangled)
                self._recorded_verifications = verified
            if self.degradation is not None:
                self.degradation.require_quorum(
                    self.registry.names(), self._quorum
                )
            ingest_export = None
            if self._ingest_log is not None:
                self._ingest_log.complete(payload=wrangled)
                ingest_export = self._ingest_log.export()
        finally:
            self._ingest_log = None
        return WrangleResult(
            table=wrangled,
            plan=flow.value("plan"),
            quality=quality,
            mappings=flow.value("select") or [],
            resolution=flow.value("resolve"),
            repair=repair_result,
            source_reports={
                name: flow.value(f"quality:{name}")
                for name in self.registry.names()
                if flow.is_clean(f"quality:{name}")
            },
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

    # -- pay-as-you-go --------------------------------------------------------

    def apply_feedback(self, items: Sequence[Feedback]) -> None:
        """Record feedback, propagate it everywhere, invalidate precisely.

        Each feedback type dirties only the dataflow nodes it can affect
        (:data:`~repro.feedback.types.DIRTIES`); the next :meth:`run` recomputes just
        that cone (experiment E6 measures the savings).
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
            report = propagator.propagate(wrangled=wrangled, items=items)
        self._match_evidence = dict(report.match_evidence)

        invalidated: set[str] = set()
        for item in items:
            kinds, shape = DIRTIES.get(type(item), ((), None))
            if shape is None:
                invalidated.update(kinds)
                continue
            named = self._named_source(item)
            names = [named] if named else [
                source.name for source in self.registry
                if isinstance(source, shape)
            ]
            invalidated.update(
                f"{kind}:{name}" for kind in kinds for name in names
            )
        # Feedback also informs *source selection* (Section 2.4): replan
        # when the shifted beliefs beat the plan the current outputs were
        # computed with (the previous run's, stale or not) by enough to
        # pay — acquisition of newly selected sources is then a
        # legitimate, paid-for recomputation.
        current_plan = flow.value("plan", allow_stale=True)
        if current_plan is not None:
            fresh_plan = self.planner.plan(
                self.user, self.data, self.registry, self.working.annotations
            )
            if self.planner.replan_pays(
                current_plan, fresh_plan,
                self.registry, self.working.annotations,
            ):
                invalidated.add("plan")

        for node in sorted(invalidated):
            flow.invalidate(node)
        feedback_span.set_attribute("invalidated", sorted(invalidated))
        self.telemetry.metrics.counter(
            "feedback.nodes_invalidated"
        ).increment(len(invalidated))

    def _named_source(self, item: Feedback) -> str | None:
        """The registered source ``item`` is about, when it says which:
        by ``source_name``, or as the owner of the filed wrapper whose id
        it judges."""
        named = getattr(item, "source_name", None)
        if named is None:
            owners = {w.wrapper_id: n for n, w in self.working.items("wrapper")}
            named = owners.get(item.wrapper_id)
        return named if named in self.registry else None

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
