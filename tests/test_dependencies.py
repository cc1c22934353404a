"""The package runs on the stdlib plus numpy.

networkx is a test-only oracle (``tests/resolution/test_clusters_of.py``,
``tests/core/test_dataflow.py``, ``tests/context/test_ontology.py``) and
scipy is not a dependency at all: a cold run and a feedback-driven
incremental run over the quickstart world, in a fresh interpreter, must
never import either.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys

import repro
from quickstart import build_wrangler
from repro.feedback.types import ValueFeedback

wrangler = build_wrangler()
record = next(iter(wrangler.run().table))
wrangler.apply_feedback(
    [ValueFeedback(entity=record.rid, attribute="price", is_correct=True)]
)
wrangler.run()
forbidden = ("networkx", "scipy")
print(sorted(name for name in sys.modules if name.startswith(forbidden)))
"""


def test_a_cold_and_an_incremental_run_never_import_networkx():
    path = [str(ROOT / "src"), str(ROOT / "examples")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    ).stdout.strip()
    assert out == "[]"
