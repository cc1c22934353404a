"""The one way rule tests reach the gate: ``run_preflight``, handed what a
``Wrangler`` would hand it."""

import pytest

from repro.analysis.typecheck import pipeline_shape, run_preflight
from repro.core.dataflow import Dataflow
from repro.model.workingdata import WorkingData


def _never_run(inputs):
    raise AssertionError("the gate is static: no node is computed")


def run_gate(
    plan=None,
    user=None,
    data=None,
    registry=None,
    dataflow=None,
    schemas=None,
    mappings=None,
    **options,
):
    """``run_preflight`` over hand-built artifacts.

    ``schemas`` / ``mappings`` (keyed by source name) are filed the way
    the wrangler's probe files them, as ``probe/<name>`` entries of a
    :class:`WorkingData`; without a ``dataflow``, one is composed from
    :func:`pipeline_shape` over the plan's sources, as
    ``Wrangler._build_flow`` does.  Returns the gate's report.
    """
    working = WorkingData()
    for name, schema in (schemas or {}).items():
        working.put("schema", f"probe/{name}", schema)
    for name, mapping in (mappings or {}).items():
        working.put("mapping", f"probe/{name}", mapping)
    if dataflow is None:
        dataflow = Dataflow()
        shape = pipeline_shape(tuple(getattr(plan, "sources", ()) or ()))
        for node, dependencies in shape.items():
            dataflow.add(node, _never_run, dependencies)
    return run_preflight(
        plan=plan,
        user=user,
        data=data,
        registry=registry,
        dataflow=dataflow,
        working=working,
        **options,
    )


@pytest.fixture
def gate():
    return run_gate
