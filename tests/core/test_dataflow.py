"""Tests for the incremental dataflow engine."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataflow import Dataflow, same_value
from repro.errors import DataflowError, StaleValueError
from repro.model.schema import DataType
from repro.model.values import Value
from repro.obs import ManualClock, Telemetry


class Fed(Dataflow):
    """A flow whose leaves read settable cells.  A leaf is built with
    ``add`` like any node; :meth:`feed` moves its cell and forces it, so
    the next pull re-runs the leaf and, past it, only what changed."""

    def __init__(self, telemetry=None):
        super().__init__(telemetry)
        self.cells = {}

    def leaf(self, name, value):
        self.cells[name] = value
        return self.add(name, lambda inputs: self.cells[name])

    def feed(self, name, value):
        self.cells[name] = value
        self.invalidate(name)


def build_diamond():
    """a -> b, a -> c, (b, c) -> d, with run counters."""
    flow = Fed()
    flow.leaf("a", 1)
    flow.add("b", lambda inputs: inputs["a"] + 1, ("a",))
    flow.add("c", lambda inputs: inputs["a"] * 10, ("a",))
    flow.add("d", lambda inputs: inputs["b"] + inputs["c"], ("b", "c"))
    return flow


class TestConstruction:
    def test_duplicate_node_rejected(self):
        flow = Dataflow()
        flow.add("a", lambda inputs: None)
        with pytest.raises(DataflowError):
            flow.add("a", lambda inputs: None)

    def test_unknown_dependency_rejected(self):
        flow = Dataflow()
        with pytest.raises(DataflowError):
            flow.add("b", lambda i: None, ("missing",))

    def test_unknown_node_access(self):
        with pytest.raises(DataflowError):
            Dataflow().pull("ghost")


class TestEvaluation:
    def test_pull_computes_transitively(self):
        flow = build_diamond()
        assert flow.pull("d") == (1 + 1) + (1 * 10)

    def test_memoisation(self):
        flow = build_diamond()
        flow.pull("d")
        runs = flow.total_runs()
        flow.pull("d")
        flow.pull("b")
        assert flow.total_runs() == runs

    def test_set_input_recomputes_only_downstream(self):
        flow = build_diamond()
        flow.pull("d")
        flow.feed("a", 2)
        assert not flow.is_clean("d")
        assert flow.pull("d") == (2 + 1) + (2 * 10)
        assert flow.runs("b") == 2
        assert flow.runs("d") == 2

    def test_invalidate_single_node_recomputes_cone_only(self):
        scale = {"c": 10}
        flow = Fed()
        flow.leaf("a", 1)
        flow.add("b", lambda inputs: inputs["a"] + 1, ("a",))
        flow.add("c", lambda inputs: inputs["a"] * scale["c"], ("a",))
        flow.add("d", lambda inputs: inputs["b"] + inputs["c"], ("b", "c"))
        flow.pull("d")
        scale["c"] = 20
        flow.invalidate("c")
        assert flow.pull("d") == 2 + 20
        # b untouched, c and d recomputed
        assert flow.runs("b") == 1
        assert flow.runs("c") == 2
        assert flow.runs("d") == 2

    def test_invalidate_cuts_off_where_the_value_does_not_change(self):
        flow = build_diamond()
        flow.pull("d")
        flow.invalidate("c")
        assert flow.pull("d") == 12
        # c re-ran to the value it had, so d is marked clean unrun
        assert flow.runs("c") == 2
        assert flow.runs("d") == 1
        assert flow.node_stats()["d"]["cutoffs"] == 1
        assert flow.is_clean("d")

    def test_pull_cleans_the_whole_ancestor_cone(self):
        flow = build_diamond()
        assert not any(flow.is_clean(name) for name in "abcd")
        flow.pull("d")
        assert all(flow.is_clean(name) for name in "abcd")

    def test_nodes_topological(self):
        flow = build_diamond()
        order = flow.nodes()
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("c") < order.index("d")

    def test_value_raises_on_dirty_node(self):
        flow = build_diamond()
        flow.pull("d")
        flow.feed("a", 5)
        with pytest.raises(StaleValueError):
            flow.value("d")
        assert flow.pull("d") == 56
        assert flow.value("d") == 56  # clean again after the pull

    def test_value_allow_stale_reads_previous_run(self):
        flow = build_diamond()
        flow.pull("d")
        flow.feed("a", 5)
        assert flow.value("d", allow_stale=True) == 12
        # The explicit stale read does not recompute anything.
        assert not flow.is_clean("d")

    def test_never_computed_node_is_stale(self):
        flow = build_diamond()
        with pytest.raises(StaleValueError):
            flow.value("d")


class TestObservability:
    def test_hit_counters(self):
        flow = build_diamond()
        flow.pull("d")
        flow.pull("d")
        flow.pull("d")
        stats = flow.node_stats()
        assert stats["d"]["runs"] == 1
        assert stats["d"]["hits"] == 2

    def test_invalidation_counters_cover_the_cone(self):
        flow = build_diamond()
        flow.pull("d")
        flow.invalidate("c")
        stats = flow.node_stats()
        assert stats["c"]["invalidations"] == 1
        assert stats["d"]["invalidations"] == 1
        assert stats["b"]["invalidations"] == 0
        # Re-invalidating an already-dirty node does not double-count.
        flow.invalidate("c")
        assert flow.node_stats()["c"]["invalidations"] == 1

    def test_telemetry_records_spans_and_timings(self):
        clock = ManualClock()
        telemetry = Telemetry(clock=clock)
        flow = Dataflow(telemetry=telemetry)

        def slow(inputs):
            clock.advance(0.25)
            return 2

        flow.add("b", slow, stage="demo")
        flow.pull("b")
        assert flow.node_stats()["b"]["seconds"] == pytest.approx(0.25)
        spans = telemetry.tracer.find("dataflow:b")
        assert len(spans) == 1
        assert spans[0].attributes["stage"] == "demo"
        assert spans[0].duration == pytest.approx(0.25)
        snapshot = telemetry.metrics.snapshot()
        assert snapshot["counters"]["dataflow.misses"] == 1
        summary = snapshot["histograms"]["dataflow.compute_seconds"]
        assert summary["count"] == 1
        assert summary["max"] == pytest.approx(0.25)


def build_chain(length):
    flow = Dataflow()
    flow.add("n0", lambda inputs: 0)
    for i in range(1, length):
        flow.add(f"n{i}", lambda inputs, p=f"n{i - 1}": inputs[p] + 1,
                 (f"n{i - 1}",))
    return flow


def count_cones(monkeypatch):
    """Record every cone ``Dataflow`` derives, as ``(name, upward)``."""
    calls = []
    original = Dataflow._cone

    def counting(self, name, upward):
        calls.append((name, upward))
        return original(self, name, upward)

    monkeypatch.setattr(Dataflow, "_cone", counting)
    return calls


class TestSweepComplexity:
    """Regression guard for the single-sweep pull."""

    def test_pull_derives_its_cone_once(self, monkeypatch):
        flow = build_chain(500)
        calls = count_cones(monkeypatch)
        # One ancestor walk for the whole chain — not one per node, which
        # is what made a full 500-node refresh O(V·(V+E)).
        assert flow.pull("n499") == 499
        assert calls == [("n499", True)]
        assert all(flow.runs(f"n{i}") == 1 for i in range(1, 500))


def build_echo(value):
    """a -> b (echoes a) -> c (wraps b), with run counters."""
    flow = Fed()
    flow.leaf("a", value)
    flow.add("b", lambda inputs: inputs["a"], ("a",))
    flow.add("c", lambda inputs: ("seen", inputs["b"]), ("b",))
    flow.pull("c")
    return flow


class TestEarlyCutoff:
    """A node is cut off only when nothing it reads changed type-strictly."""

    @pytest.mark.parametrize("old, new", [
        (1, 1.0), (1, True), (0.0, -0.0), (1.0, 1), (True, 1),
    ])
    def test_a_cell_moving_only_in_type_or_sign_is_not_cut_off(
        self, old, new
    ):
        assert old == new  # plain equality would have cut it off
        flow = build_echo(old)
        flow.feed("a", new)
        assert flow.pull("c") == ("seen", new)
        assert flow.runs("b") == 2
        assert flow.runs("c") == 2

    def test_the_same_moves_inside_a_value_cell_are_changes(self):
        assert Value(1, DataType.INTEGER) == Value(1.0, DataType.INTEGER)
        flow = build_echo([Value(1, DataType.INTEGER)])
        flow.feed("a", [Value(1.0, DataType.INTEGER)])
        flow.pull("c")
        assert flow.runs("c") == 2

    def test_nan_always_recomputes(self):
        flow = build_echo(math.nan)
        for runs in (2, 3):
            flow.feed("a", flow.cells["a"])   # the very same NaN object
            flow.pull("c")
            assert flow.runs("c") == runs

    def test_an_equal_value_is_cut_off(self):
        flow = build_echo([1, "x", {"k": 2.5}])
        flow.feed("a", [1, "x", {"k": 2.5}])
        flow.pull("c")
        stats = flow.node_stats()
        assert [stats[n]["runs"] for n in "bc"] == [1, 1]
        assert [stats[n]["cutoffs"] for n in "bc"] == [1, 1]
        flow.invalidate("b")      # forced, re-runs to the same value
        flow.pull("c")
        assert flow.runs("b") == 2
        assert flow.runs("c") == 1

    def test_a_forced_node_runs_though_nothing_it_reads_changed(self):
        flow = build_echo(1)
        flow.invalidate("c")
        flow.pull("c")
        assert flow.runs("b") == 1
        assert flow.runs("c") == 2

    def test_a_change_pulled_earlier_still_reaches_a_node_pulled_later(self):
        flow = build_diamond()
        flow.pull("d")
        flow.feed("a", 2)
        assert flow.pull("b") == 3     # a's change is consumed here ...
        assert flow.pull("d") == 3 + 20  # ... and still re-runs c and d
        assert flow.runs("c") == 2
        assert flow.runs("d") == 2
        assert flow.node_stats()["d"]["cutoffs"] == 0

    def test_two_forced_nodes_rerun_to_their_values_and_cut_off_d(self):
        flow = build_diamond()
        flow.pull("d")
        flow.invalidate("b")
        flow.invalidate("c")
        assert flow.pull("d") == 12
        stats = flow.node_stats()
        assert [stats[n]["runs"] for n in "abcd"] == [1, 2, 2, 1]
        assert [stats[n]["cutoffs"] for n in "abcd"] == [0, 0, 0, 1]
        assert [stats[n]["hits"] for n in "abcd"] == [0, 0, 0, 0]

    def test_cutoffs_are_counted_in_telemetry(self):
        telemetry = Telemetry(clock=ManualClock())
        flow = Fed(telemetry=telemetry)
        flow.leaf("a", 1)
        flow.add("b", lambda inputs: inputs["a"] % 2, ("a",))
        flow.add("c", lambda inputs: inputs["b"] + 1, ("b",))
        flow.pull("c")
        flow.feed("a", 3)
        assert flow.pull("c") == 2
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["dataflow.nodes_cutoff"] == 1
        assert len(telemetry.tracer.find("dataflow:c")) == 1

    @pytest.mark.parametrize("old, new, same", [
        ((1, 2), (1, 2), True),
        ((1, 2), [1, 2], False),
        ({"a": 1, "b": 2}, {"b": 2, "a": 1}, False),   # order is content
        ({1, 2}, {2, 1}, True),
        ({1}, {1.0}, False),
        (None, None, True),
        ("x", "x", True),
    ])
    def test_same_value(self, old, new, same):
        assert same_value(old, new) is same


@st.composite
def dags(draw):
    """``{node: dependencies}`` in insertion order: each node depends on
    a random subset of the nodes before it."""
    shape = {}
    for i in range(draw(st.integers(1, 12))):
        earlier = st.sets(st.sampled_from(list(shape))) if shape else st.just(())
        shape[f"n{i}"] = tuple(sorted(draw(earlier)))
    return shape


def build_logged(shape):
    """A flow over ``shape`` whose nodes log their runs, and the networkx
    graph of the same edges (the reference for the flow's own walks)."""
    log = []
    flow = Dataflow()
    graph = nx.DiGraph()
    for name, dependencies in shape.items():
        flow.add(name, lambda inputs, name=name: log.append(name),
                 dependencies)
        graph.add_node(name)
        graph.add_edges_from((dependency, name)
                             for dependency in dependencies)
    return flow, graph, log


class TestWalksAgainstNetworkx:
    """Insertion order and the dependency/dependent walks, checked against
    networkx over random DAGs."""

    @settings(max_examples=200, deadline=None)
    @given(dags(), st.data())
    def test_order_and_cones(self, shape, data):
        flow, graph, log = build_logged(shape)
        order = flow.nodes()
        assert order == list(shape)
        for name, dependencies in shape.items():
            assert all(order.index(d) < order.index(name)
                       for d in dependencies)

        pulled = data.draw(st.sampled_from(order))
        flow.pull(pulled)
        assert set(log) == nx.ancestors(graph, pulled) | {pulled}
        assert log == [name for name in order if name in set(log)]

        for name in order:
            flow.pull(name)
        invalidated = data.draw(st.sampled_from(order))
        flow.invalidate(invalidated)
        assert {name for name in order if not flow.is_clean(name)} == (
            nx.descendants(graph, invalidated) | {invalidated}
        )
