"""The line accounting of ``tools/reach.py``: which functions it counts,
and what a traced call marks as reached."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "reach.py"


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve through it
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def uncertainty(reach):
    return reach.PACKAGE / "model" / "uncertainty.py"


def key(path, function):
    return (os.path.realpath(path), function.first)


def test_outermost_functions_start_at_their_first_decorator(reach, uncertainty):
    found = {f.name: f for f in reach.functions(uncertainty)}
    source = uncertainty.read_text().splitlines()
    assert source[found["BetaReliability.mean"].first - 1].strip() == "@property"
    assert source[found["pool_evidence"].first - 1].startswith("def ")
    spans = sorted((f.first, f.last) for f in found.values())
    assert all(a[1] < b[0] for a, b in zip(spans, spans[1:]))  # no nesting


def test_a_function_counts_as_reached_once_entered(reach, uncertainty):
    from repro.model.uncertainty import clamp

    (function,) = [f for f in reach.functions(uncertainty) if f.name == "clamp"]
    with reach.Probe() as probe:
        clamp(2.0)
    assert key(uncertainty, function) in probe.keys()


def test_report_lists_only_what_no_key_reaches(reach, uncertainty):
    every = {
        key(path, f)
        for path in reach.PACKAGE.rglob("*.py")
        for f in reach.functions(path)
    }
    assert reach.report(every).startswith("unreached: 0 of ")
    (clamp,) = [f for f in reach.functions(uncertainty) if f.name == "clamp"]
    text = reach.report(every - {key(uncertainty, clamp)})
    assert text.startswith(f"unreached: {clamp.lines} of ")
    assert f"repro/model/uncertainty.py: {clamp.lines} lines" in text
    assert f"{clamp.first}-{clamp.last}  clamp" in text
