"""The incremental dataflow engine behind pay-as-you-go recomputation.

Section 2.4: "It is of paramount importance that these feedback-induced
'reactions' do not trigger a re-processing of all datasets involved in the
computation but rather limit the processing to the strictly necessary
data."

The engine is a DAG of named nodes.  Each node's compute function reads
the values of its dependencies; results are memoised and only recomputed
when a dependency (or the node itself) has been invalidated.  Feedback
handlers invalidate exactly the nodes a feedback type touches, and the
next ``pull`` re-runs only what that changes — the recompute counter is
what experiment E6 reports.

**Early cutoff.**  ``invalidate(name)`` *forces* ``name`` and merely
dirties its downstream cone.  A sweep keeps a revision counter; every
node records the revision its value last changed at (``changed_at``) and
the one it was last brought up to date at (``verified_at``).  A forced
node always runs.  A dirty, unforced node runs only if some dependency
changed after its ``verified_at``; otherwise it is marked clean without
running — a *cutoff* (``dataflow.nodes_cutoff``).  A recomputed node
counts as changed unless its new value is the old object or equals it
type-strictly (:func:`same_value`), so propagation stops where a node's
output stops changing.

Every evaluation is observable: nodes carry hit/run/invalidation counters
and accumulated compute seconds, and a :class:`~repro.obs.Telemetry`
bundle (when attached) receives graph-wide counters, per-node timing
histograms, and one trace span per recomputation.  Reading a dirty node's
memoised value through :meth:`Dataflow.value` raises
:class:`~repro.errors.StaleValueError` unless staleness is explicitly
requested — silent stale reads were a bug, not a feature.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

import networkx as nx

from repro.errors import DataflowError, StaleValueError
from repro.obs import Telemetry

__all__ = ["Dataflow", "same_value"]


def same_value(old: Any, new: Any) -> bool:
    """Whether ``new`` may stand in for ``old`` without re-running anything
    that read ``old``: the same object, or equal *type-strictly*.

    Plain ``==`` is not enough — ``1 == 1.0 == True`` and ``0.0 == -0.0``
    in Python, and :class:`~repro.model.values.Value` equality inherits
    that — so types must match at every level, floats must agree in sign,
    and NaN is never the same as anything (itself included).  Lists,
    tuples, dicts (in order), sets and dataclasses are compared element
    by element, field by field; any other object by its own ``==``
    (identity, unless its type says otherwise).  Identity short-circuits
    every level, which keeps a table of memoised records as cheap to
    compare as its record list.
    """
    if type(old) is not type(new):
        return False
    if isinstance(old, float):
        return old == new and math.copysign(1.0, old) == math.copysign(1.0, new)
    if old is new:
        return True
    if isinstance(old, (list, tuple)):
        return len(old) == len(new) and all(
            same_value(a, b) for a, b in zip(old, new)
        )
    if isinstance(old, dict):
        return len(old) == len(new) and all(
            same_value(ka, kb) and same_value(va, vb)
            for (ka, va), (kb, vb) in zip(old.items(), new.items())
        )
    if isinstance(old, (set, frozenset)):
        return len(old) == len(new) and all(
            any(same_value(a, b) for b in new if a == b) for a in old
        )
    if dataclasses.is_dataclass(old):
        return all(
            same_value(getattr(old, f.name), getattr(new, f.name))
            for f in dataclasses.fields(old)
        )
    return bool(old == new)


@dataclass
class _Node:
    name: str
    compute: Callable[[Mapping[str, Any]], Any]
    dependencies: tuple[str, ...]
    stage: str | None = None
    value: Any = None
    clean: bool = False
    #: Must run on its next sweep (never computed, or invalidated itself);
    #: a node that is merely downstream of a change is dirty, not forced.
    forced: bool = True
    #: The revision the value last changed at, and the one the node was
    #: last brought up to date at (run or cut off).
    changed_at: int = 0
    verified_at: int = 0
    runs: int = 0
    hits: int = 0
    cutoffs: int = 0
    invalidations: int = 0
    seconds: float = 0.0
    #: Predicted compute-seconds from the static cost model, or ``None``
    #: before :meth:`Dataflow.annotate_costs` has run.  A deterministic
    #: estimate (not a measurement), so telemetry scrubbing keeps it.
    cost: float | None = None


class Dataflow:
    """A pull-based, memoising dataflow DAG with early cutoff."""

    def __init__(self, telemetry: Telemetry | None = None) -> None:
        self._nodes: dict[str, _Node] = {}
        #: Bumped whenever a node's value changes (see :meth:`_settle`).
        self._revision = 0
        self._graph = nx.DiGraph()
        #: Cached topological order; recomputed lazily after ``add``.
        self._order: list[str] | None = None
        #: How many times the topological order was derived (the
        #: regression guard for pull_all's single-sweep contract).
        self.topo_derivations = 0
        self.telemetry = telemetry

    # -- construction -----------------------------------------------------

    def add(
        self,
        name: str,
        compute: Callable[[Mapping[str, Any]], Any],
        dependencies: tuple[str, ...] = (),
        stage: str | None = None,
    ) -> str:
        """Add a node; dependencies must already exist (DAG by construction).

        ``stage`` is a free-form pipeline-stage label carried into spans
        and telemetry exports (e.g. ``"extraction"``, ``"fusion"``).
        """
        if name in self._nodes:
            raise DataflowError(f"node {name!r} already defined")
        for dependency in dependencies:
            if dependency not in self._nodes:
                raise DataflowError(
                    f"node {name!r} depends on undefined node {dependency!r}"
                )
        self._nodes[name] = _Node(name, compute, tuple(dependencies), stage)
        self._graph.add_node(name)
        for dependency in dependencies:
            self._graph.add_edge(dependency, name)
        self._order = None  # topology changed; re-derive on next sweep
        return name

    def add_input(self, name: str, value: Any = None) -> str:
        """Add a leaf node holding an externally supplied value."""
        self.add(name, lambda inputs: None, stage="input")
        self._settle(self._nodes[name], value)
        return name

    def set_input(self, name: str, value: Any) -> None:
        """Replace an input's value and dirty everything downstream; the
        dependents re-run on their next pull only if ``value`` differs
        from the old one (:func:`same_value`)."""
        self._settle(self._require(name), value)
        self._dirty_descendants(name)

    # -- invalidation ------------------------------------------------------

    def invalidate(self, name: str) -> None:
        """Force a node to recompute on its next pull; its downstream cone
        becomes dirty and re-runs only where an input actually changed."""
        node = self._require(name)
        node.forced = True
        if node.clean:
            node.clean = False
            node.invalidations += 1
            self._count("dataflow.invalidations")
        self._dirty_descendants(name)

    def _dirty_descendants(self, name: str) -> None:
        for descendant in nx.descendants(self._graph, name):
            node = self._nodes[descendant]
            if node.clean:
                node.clean = False
                node.invalidations += 1
                self._count("dataflow.invalidations")

    def invalidate_all(self) -> None:
        """Force every non-input node (full recompute on next pull)."""
        for node in self._nodes.values():
            if node.dependencies:
                node.forced = True
                if node.clean:
                    node.clean = False
                    node.invalidations += 1
                    self._count("dataflow.invalidations")

    # -- evaluation ---------------------------------------------------------

    def _topo_order(self) -> list[str]:
        """The cached topological order (derived once per topology)."""
        if self._order is None:
            self._order = list(nx.topological_sort(self._graph))
            self.topo_derivations += 1
        return self._order

    def _settle(self, node: _Node, value: Any) -> None:
        """Store a node's up-to-date value, recording a change (a new
        revision) unless it is the :func:`same_value` as the old one."""
        if not same_value(node.value, value):
            self._revision += 1
            node.changed_at = self._revision
        node.value = value
        node.verified_at = self._revision
        node.clean = True
        node.forced = False

    def _recompute(self, node: _Node) -> None:
        """Run one dirty node's compute function, timed and counted."""
        inputs = {
            dependency: self._nodes[dependency].value
            for dependency in node.dependencies
        }
        if self.telemetry is not None:
            clock = self.telemetry.clock
            with self.telemetry.tracer.span(
                f"dataflow:{node.name}",
                node=node.name,
                stage=node.stage,
            ):
                started = clock.current_time()
                value = node.compute(inputs)
                elapsed = clock.current_time() - started
            self.telemetry.metrics.histogram(
                "dataflow.compute_seconds"
            ).observe(elapsed)
            self.telemetry.metrics.counter("dataflow.misses").increment()
        else:
            elapsed = 0.0
            value = node.compute(inputs)
        node.seconds += elapsed
        node.runs += 1
        self._settle(node, value)

    def _sweep(self, names: Iterable[str]) -> None:
        """Bring the dirty nodes among ``names`` (topological order) up to
        date: run the forced ones and those an input changed under, cut
        off the rest."""
        for name in names:
            node = self._nodes[name]
            if node.clean:
                continue
            if node.forced or any(
                self._nodes[dependency].changed_at > node.verified_at
                for dependency in node.dependencies
            ):
                self._recompute(node)
            else:
                node.clean = True
                node.verified_at = self._revision
                node.cutoffs += 1
                self._count("dataflow.nodes_cutoff")

    def pull(self, name: str) -> Any:
        """The node's current value, recomputing only the dirty cone.

        A clean node is a cache hit and returns immediately.  A dirty
        node derives its ancestor cone **once** and sweeps it in the
        (cached) topological order — not once per ancestor, which is what
        made full refreshes quadratic before.
        """
        node = self._require(name)
        if node.clean:
            node.hits += 1
            self._count("dataflow.hits")
            return node.value
        cone = nx.ancestors(self._graph, name)
        cone.add(name)
        ordered = (n for n in self._topo_order() if n in cone)
        self._sweep(ordered)
        return node.value

    def pull_all(self) -> None:
        """Bring every node up to date in a single topological sweep.

        Equivalent to pulling each node in turn — the per-node ``runs``,
        ``hits`` and ``cutoffs`` counters come out identical — but does
        one pass over the cached order instead of re-deriving ancestors
        and a fresh topological sort per node.
        """
        dirty: list[str] = []
        for name in self._topo_order():
            node = self._nodes[name]
            if node.clean:
                node.hits += 1
                self._count("dataflow.hits")
            else:
                dirty.append(name)
        self._sweep(dirty)

    def _count(self, metric: str) -> None:
        if self.telemetry is not None:
            self.telemetry.metrics.counter(metric).increment()

    # -- cost annotation ----------------------------------------------------

    def annotate_costs(self, costs: Mapping[str, float]) -> None:
        """Record predicted per-node compute-seconds from the cost model.

        The cost certifier (see :mod:`repro.analysis.cost`) calls this
        after propagating estimates through the topology, so telemetry
        exports carry the prediction next to the observed ``seconds``.
        Unknown names are ignored — a synthetic topology may estimate
        nodes this graph does not carry.
        """
        for name, predicted in costs.items():
            node = self._nodes.get(name)
            if node is not None:
                node.cost = float(predicted)

    def cost_map(self) -> dict[str, float | None]:
        """Every node's predicted seconds (``None`` = unannotated)."""
        return {name: node.cost for name, node in self._nodes.items()}

    # -- introspection ----------------------------------------------------

    def _require(self, name: str) -> _Node:
        if name not in self._nodes:
            raise DataflowError(f"no node named {name!r}")
        return self._nodes[name]

    def value(self, name: str, allow_stale: bool = False) -> Any:
        """The memoised value; raises on a dirty node unless allowed.

        A dirty node's memoised value predates its latest invalidation:
        handing it out silently was the bug behind stale reads after
        feedback.  Pass ``allow_stale=True`` only where the previous
        run's value is genuinely what is wanted (e.g. "the plan the
        current outputs were computed with").
        """
        node = self._require(name)
        if not node.clean and not allow_stale:
            raise StaleValueError(
                f"node {name!r} is dirty: pull() it first, or pass "
                "allow_stale=True to read the previous run's value"
            )
        return node.value

    def is_clean(self, name: str) -> bool:
        """Whether the node is up to date."""
        return self._require(name).clean

    def runs(self, name: str) -> int:
        """How many times the node has been computed."""
        return self._require(name).runs

    def verifications(self, name: str) -> int:
        """How many times the node was brought up to date: run or cut off."""
        node = self._require(name)
        return node.runs + node.cutoffs

    def total_runs(self) -> int:
        """Total node computations across the graph's lifetime."""
        return sum(node.runs for node in self._nodes.values())

    def dirty_nodes(self) -> list[str]:
        """All currently stale nodes."""
        return sorted(
            name for name, node in self._nodes.items() if not node.clean
        )

    def nodes(self) -> list[str]:
        """All node names in topological order."""
        return list(self._topo_order())

    def node_stats(self) -> dict[str, dict[str, Any]]:
        """Per-node observability: the ``dataflow.nodes`` telemetry block."""
        return {
            name: {
                "runs": node.runs,
                "hits": node.hits,
                "cutoffs": node.cutoffs,
                "invalidations": node.invalidations,
                "seconds": node.seconds,
                "stage": node.stage,
                "clean": node.clean,
                "cost": node.cost,
            }
            for name, node in self._nodes.items()
        }

    def dependency_map(self) -> dict[str, tuple[str, ...]]:
        """Every node's declared dependencies — the static-analysis view.

        The preflight walk consumes this to thread schemas and cost
        estimates through the graph without executing any node.
        """
        return {
            name: node.dependencies for name, node in self._nodes.items()
        }
