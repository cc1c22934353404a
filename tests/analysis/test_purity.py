"""AST purity certification: what earns, voids, or withholds a certificate."""

import datetime
import functools
import time

from repro.analysis.typecheck.purity import (
    PurityAnalyser,
    certify_callable,
    certify_dataflow,
)
from repro.core.dataflow import Dataflow

COUNTER = 0


def pure_helper(x):
    return x * 2


def impure_print(inputs):
    print(inputs)
    return inputs


def impure_open(inputs):
    with open("/tmp/x") as handle:
        return handle.read()


def impure_clock(inputs):
    return time.time()


def impure_date(inputs):
    return datetime.date.today()


def impure_global(inputs):
    global COUNTER
    COUNTER += 1
    return COUNTER


def impure_body_import(inputs):
    import os

    return os.getpid()


class Stage:
    """A wrangler-shaped object whose node lambdas call self methods."""

    def _pure_stage(self, value):
        return pure_helper(value)

    def _impure_stage(self, value):
        print(value)
        return value

    def pure_node(self):
        return lambda inputs: self._pure_stage(inputs)

    def impure_node(self):
        return lambda inputs: self._impure_stage(inputs)


class TestVerdicts:
    def test_pure_lambda(self):
        assert certify_callable(lambda inputs: inputs).is_pure

    def test_pure_function_calling_repro_helper(self):
        def node(inputs):
            return pure_helper(inputs)

        # pure_helper lives in this test module, not repro.*, so it is
        # not followed — the body itself is trigger-free.
        assert certify_callable(node).is_pure

    def test_print_is_impure(self):
        verdict = certify_callable(impure_print)
        assert verdict.status == "impure"
        assert any("print" in reason for reason in verdict.reasons)

    def test_open_is_impure(self):
        assert certify_callable(impure_open).status == "impure"

    def test_clock_read_is_impure(self):
        verdict = certify_callable(impure_clock)
        assert verdict.status == "impure"
        assert any("clock" in reason for reason in verdict.reasons)

    def test_date_today_is_impure(self):
        assert certify_callable(impure_date).status == "impure"

    def test_global_mutation_is_impure(self):
        verdict = certify_callable(impure_global)
        assert any("global" in reason for reason in verdict.reasons)

    def test_body_import_of_io_module_is_impure(self):
        verdict = certify_callable(impure_body_import)
        assert verdict.status == "impure"

    def test_builtin_is_unknown(self):
        verdict = certify_callable(len)
        assert verdict.status == "unknown"
        assert not verdict.is_pure

    def test_render_includes_reasons(self):
        verdict = certify_callable(impure_print)
        assert verdict.render().startswith("impure: ")


class TestSelfResolution:
    def test_follows_self_method_one_hop_pure(self):
        assert certify_callable(Stage().pure_node()).is_pure

    def test_follows_self_method_one_hop_impure(self):
        verdict = certify_callable(Stage().impure_node())
        assert verdict.status == "impure"

    def test_bound_method_directly(self):
        stage = Stage()
        assert certify_callable(stage._pure_stage).is_pure
        assert certify_callable(stage._impure_stage).status == "impure"

    def test_partial_is_unwrapped(self):
        bound = functools.partial(impure_print, "x")
        assert certify_callable(bound).status == "impure"


class TestAnalyserCaching:
    def test_verdicts_cached_per_code_and_self_type(self):
        analyser = PurityAnalyser()
        first = analyser.analyse(impure_print)
        second = analyser.analyse(impure_print)
        assert first is second

    def test_ast_cache_survives_across_callables(self):
        analyser = PurityAnalyser()
        analyser.analyse(impure_print)
        analyser.analyse(impure_open)
        # Both live in this file: parsed once.
        assert len([t for t in analyser._ast_cache.values() if t]) == 1


class TestDataflowCertification:
    def build_flow(self):
        flow = Dataflow()
        flow.add("clean", lambda inputs: 1)
        flow.add("dirty", lambda inputs: print(inputs), ("clean",))
        return flow

    def test_certify_records_verdicts_on_nodes(self):
        flow = self.build_flow()
        verdicts = flow.certify()
        assert verdicts["clean"].is_pure
        assert verdicts["dirty"].status == "impure"
        assert flow.purity_map() == {"clean": "pure", "dirty": "impure"}

    def test_certify_dataflow_helper_uses_the_engine_hook(self):
        flow = self.build_flow()
        verdicts = certify_dataflow(flow)
        assert set(verdicts) == {"clean", "dirty"}
        assert flow.purity_map()["dirty"] == "impure"

    def test_node_stats_carry_purity(self):
        flow = self.build_flow()
        flow.certify()
        assert flow.node_stats()["clean"]["purity"] == "pure"
