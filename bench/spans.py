"""Outside-in tracing: timing wrappers around each layer's entry points.

The traced round installs, from here and without touching ``src/``, one
wrapper per entry point listed in :data:`ENTRY_POINTS`.  Every call
records a span (name, layer, start, end, parent, op id) in memory and
adds the work counts measured at that boundary.  A layer's *self time*
is its spans' duration minus the part their child spans cover, so the
layers partition an op's wall time.

Only coarse boundaries are wrapped — anything called more than ~1,000
times per op is not a layer boundary.  An entry point that no longer
exists is reported as unresolved and its layer goes unmeasured; it never
fails the run, so a later refactor of ``src/`` cannot brick the gate.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

#: Span fields, in the order the trace file stores them.
FIELDS = ("name", "layer", "start", "end", "parent", "op")


class Recorder:
    """Spans and boundary counts of one round, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int | None, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self.op: int | None = None

    def start(self, layer: str, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            [name, layer, time.perf_counter(), None, parent, self.op]
        )
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def count(self, increments: dict) -> None:
        self.counts[self.op].update(increments)

    def by_op(self) -> dict[int, dict[str, float]]:
        """Per op: ``<layer>.self_s``, ``<layer>.calls`` and the counts."""
        covered = [0.0] * len(self.spans)
        for __, __, start, end, parent, __ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        ops: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, (__, layer, start, end, __, op) in enumerate(self.spans):
            if op is None:
                continue
            ops[op][f"{layer}.self_s"] += end - start - covered[index]
            ops[op][f"{layer}.calls"] += 1
        for op, counts in self.counts.items():
            if op is not None:
                ops[op].update(counts)
        return {op: dict(values) for op, values in ops.items()}


def _first(position):
    return lambda args, result: len(args[position])


def _result(args, result):
    return len(result)


#: (layer, module, dotted attribute, {count name: measure(args, result)},
#: modules that imported the name by value and look it up there).
ENTRY_POINTS = (
    ("sources", "repro.sources.base", "StructuredSource.probe",
     {"sources.rows_out": _result}, ()),
    ("sources", "repro.sources.base", "StructuredSource.fetch",
     {"sources.rows_out": _result}, ()),
    ("sources", "repro.sources.base", "StructuredSource.fetch_delta",
     {"sources.rows_out": lambda args, batch: len(batch.rows)}, ()),
    ("sources", "repro.sources.base", "StructuredSource.size_hint", {}, ()),
    ("sources", "repro.sources.base", "DocumentSource.probe",
     {"extraction.docs_in": _result}, ()),
    ("sources", "repro.sources.base", "DocumentSource.fetch",
     {"extraction.docs_in": _result}, ()),
    ("model", "repro.model.records", "Table.from_rows",
     {"model.rows_in": _first(2)}, ()),
    ("model", "repro.model.records", "Table.infer_schema",
     {"model.rows_in": _first(0)}, ()),
    ("extraction", "repro.extraction.induction", "auto_induce", {},
     ("repro.core.wrangler",)),
    ("extraction", "repro.extraction.induction", "induce_wrapper", {},
     ("repro.core.wrangler",)),
    ("extraction", "repro.extraction.wrapper", "Wrapper.extract", {}, ()),
    ("extraction", "repro.extraction.repair", "WrapperRepairer.repair",
     {}, ()),
    ("matching", "repro.matching.schema_matching", "SchemaMatcher.match",
     {"matching.correspondences_out": _result}, ()),
    ("mapping", "repro.mapping.mapping", "Mapping.from_correspondences",
     {}, ()),
    ("mapping", "repro.mapping.mapping", "Mapping.apply",
     {"mapping.rows_out": _result}, ()),
    ("mapping", "repro.mapping.selection", "MappingSelector.select", {}, ()),
    ("selection", "repro.selection.source_selection", "SourceSelector.select",
     {"selection.sources_selected":
      lambda args, selection: len(selection.selected)}, ()),
    ("core.planner", "repro.core.planner", "AutonomicPlanner.plan", {}, ()),
    ("analysis", "repro.analysis.typecheck", "run_preflight",
     {"analysis.findings": lambda args, report: len(report.diagnostics)}, ()),
    ("resolution", "repro.resolution.comparison", "profiled_comparator", {},
     ("repro.core.wrangler",)),
    ("resolution", "repro.resolution.er", "EntityResolver.resolve",
     {"resolution.rows_in": _first(1), "resolution.clusters_out": _result},
     ()),
    ("fusion", "repro.fusion.fuse", "EntityFuser.fuse",
     {"fusion.clusters_in": _first(1), "fusion.rows_out": _result}, ()),
    ("quality", "repro.quality.metrics", "QualityAnalyser.analyse",
     {"quality.rows_in": _first(1)}, ()),
    ("quality", "repro.quality.repair", "repair_table",
     {"quality.rows_in": _first(0)}, ("repro.core.wrangler",)),
    ("feedback", "repro.core.wrangler", "Wrangler.apply_feedback", {}, ()),
    ("feedback", "repro.feedback.propagation", "FeedbackPropagator.propagate",
     {}, ()),
    ("ingest", "repro.ingest.checkpoint", "CheckpointStore.begin_run",
     {}, ()),
    ("ingest", "repro.ingest.checkpoint", "RunLog.commit", {}, ()),
    ("ingest", "repro.ingest.checkpoint", "RunLog.complete", {}, ()),
    ("ingest", "repro.ingest.incremental", "acquire_durable", {}, ()),
    ("ingest", "repro.ingest.incremental", "merge_delta", {}, ()),
    ("core.dataflow", "repro.core.dataflow", "Dataflow.pull", {}, ()),
    ("core.dataflow", "repro.core.dataflow", "Dataflow.invalidate", {}, ()),
    ("obs", "repro.obs.telemetry", "Telemetry.snapshot", {}, ()),
    ("core.wrangler", "repro.core.wrangler", "Wrangler.run", {}, ()),
)

LAYERS = tuple(dict.fromkeys(entry[0] for entry in ENTRY_POINTS))


def _wrap(function, recorder: Recorder, layer: str, name: str, measures):
    def traced(*args, **kwargs):
        span = recorder.start(layer, name)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.end(span)
        if measures:
            recorder.count(
                {count: measure(args, result)
                 for count, measure in measures.items()}
            )
        return result

    traced.__wrapped__ = function
    return traced


def install(recorder: Recorder) -> list[str]:
    """Wrap every entry point; returns the ones that could not be found."""
    unresolved = []
    for layer, module_name, dotted, measures, sites in ENTRY_POINTS:
        name = f"{module_name}.{dotted}"
        try:
            owner = importlib.import_module(module_name)
            *path, attribute = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[attribute]
        except (ImportError, AttributeError, KeyError):
            unresolved.append(name)
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            traced = type(raw)(
                _wrap(raw.__func__, recorder, layer, name, measures)
            )
        else:
            traced = _wrap(raw, recorder, layer, name, measures)
        setattr(owner, attribute, traced)
        # Names imported by value are looked up where they were bound.
        for site_name in sites:
            try:
                site = importlib.import_module(site_name)
            except ImportError:
                continue
            if vars(site).get(attribute) is raw:
                setattr(site, attribute, traced)
    return unresolved
