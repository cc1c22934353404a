"""The package runs on the stdlib plus numpy, and holds no dev tooling.

networkx is a test-only oracle (``tests/resolution/test_clusters_of.py``,
``tests/core/test_dataflow.py``, ``tests/context/test_ontology.py``) and
scipy is not a dependency at all: a cold run and a feedback-driven
incremental run over the quickstart world, in a fresh interpreter, must
never import either.  The linter, the plan checker and the benchmark
ratchet are scripts under ``tools/`` that import ``repro``; nothing in
``src/repro`` is one of them or imports one.
"""

import ast
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


#: The entry points of the linter (``tools/lint.py``), the plan checker
#: (``tools/typecheck.py``) and the ratchet (``tools/ratchet.py``).
TOOLING = {
    "lint_paths", "lint_source", "run_rules",
    "check_paths",
    "run_ratchet", "orphan_baselines",
}


def test_the_package_holds_no_dev_tooling():
    package = ROOT / "src" / "repro"
    tools = {"tools", *(path.stem for path in (ROOT / "tools").glob("*.py"))}
    assert not (package / "analysis" / "__main__.py").exists()
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        assert not defined & TOOLING, (path, defined & TOOLING)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = {node.module.split(".")[0]}
            else:
                continue
            assert not roots & tools, (path, node.lineno)
