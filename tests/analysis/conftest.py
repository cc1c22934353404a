"""The ways rule tests reach the gate: ``run_preflight`` handed what a
``Wrangler`` would hand it, and seeded draws of composed plans through
``Wrangler.preflight()`` (``tools/gate_draws.py``)."""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.analysis.typecheck import run_preflight
from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.core.planner import WranglePlan
from repro.model.schema import Attribute, DataType, Schema
from repro.model.workingdata import WorkingData
from repro.sources.memory import MemorySource
from repro.sources.registry import SourceRegistry

TOOL = Path(__file__).resolve().parents[2] / "tools" / "gate_draws.py"

#: Draws every property test ranges over: the generator's first ``DRAWS``
#: (``make gate-draws N=500`` runs the full tally).
DRAWS = 60

TARGET = Schema(
    (
        Attribute("product", DataType.STRING, required=True),
        Attribute("price", DataType.CURRENCY),
        Attribute("updated", DataType.DATE),
    )
)


def load_gate_draws():
    spec = importlib.util.spec_from_file_location("gate_draws", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve through it
    spec.loader.exec_module(module)
    return module


gate_draws = load_gate_draws()


def good_plan(*sources, **overrides):
    base = dict(
        sources=list(sources),
        matcher_channels=("name", "instance"),
        match_threshold=0.6,
        er_threshold=0.85,
        fusion_strategy="weighted",
    )
    base.update(overrides)
    return WranglePlan(**base)


def registry_with(*names):
    registry = SourceRegistry()
    for name in names:
        registry.register(MemorySource(name, [{"product": "a", "price": 1.0}]))
    return registry


def run_gate(
    plan=None,
    user=None,
    data=None,
    registry=None,
    schemas=None,
    mappings=None,
    **options,
):
    """``run_preflight`` over hand-built artifacts.

    Unset artifacts default to a well-formed plan over no source, a user
    context over :data:`TARGET`, an empty data context and a registry of
    the plan's sources.  ``schemas`` / ``mappings`` (keyed by source
    name) are filed the way the wrangler's probe files them, as
    ``probe/<name>`` entries of a :class:`WorkingData`.  Returns the
    gate's report.
    """
    plan = good_plan() if plan is None else plan
    working = WorkingData()
    for name, schema in (schemas or {}).items():
        working.put("schema", f"probe/{name}", schema)
    for name, mapping in (mappings or {}).items():
        working.put("mapping", f"probe/{name}", mapping)
    return run_preflight(
        plan=plan,
        user=UserContext("u", TARGET) if user is None else user,
        data=DataContext() if data is None else data,
        registry=registry_with(*plan.sources) if registry is None else registry,
        working=working,
        **options,
    )


@pytest.fixture
def gate():
    return run_gate


@pytest.fixture(scope="session")
def draws():
    """The generator's first :data:`DRAWS` composed plans, preflighted."""
    return gate_draws.run_draws(DRAWS)


def assert_never_fires(draws, rule, arm):
    """A retired arm's property: its defect is in no composed plan."""
    (found,) = [
        a for a in gate_draws.ARMS
        if not a.live and a.rule == rule and a.arm == arm
    ]
    fired = [outcome.index for outcome in draws if found.fires(outcome)]
    assert not fired, f"{rule} ({arm}) fires on draws {fired}"
