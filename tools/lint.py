"""The framework linter: AST checks for repro's own invariants.

    python tools/lint.py src/repro                 # or: make lint
    python tools/lint.py src/repro --format json   # what CI consumes
    python tools/lint.py benchmarks --select REP015

Each rule inspects one module's AST (stdlib :mod:`ast` only) and yields
:class:`~repro.analysis.diagnostics.Diagnostic` findings.  Rules register
themselves in :data:`RULES` via the :func:`rule` decorator; the engine
below discovers files and honours ``# repro: noqa`` line suppressions.

The invariants are the framework's, not generic style: confidences are
probabilities, the model/quality layers are deterministic, provenance-
carrying return values must not be dropped, and imports must respect the
layer order of the architecture (Figure 1 flows left to right; code must
not flow back).

Exit codes: ``0`` no error-severity finding, ``1`` at least one
survived suppression, ``2`` misuse (unknown path or rule, a file that
does not parse).
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.analysis.diagnostics import (
    Diagnostic,
    Location,
    Rule,
    Severity,
    count_by_severity,
    has_errors,
    render_text,
    sort_diagnostics,
)


class UsageError(Exception):
    """The tool was misused: an unknown path or rule id, or a file that
    does not parse.  Exit code 2."""


#: The ``# repro: noqa[RULE,...]`` pragma grammar.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9,\s]+)\])?", re.IGNORECASE
)


def noqa_pragmas(
    source: str,
) -> Iterator[tuple[int, int, tuple[str, ...] | None]]:
    """Every ``# repro: noqa`` pragma in ``source``, parsed once for both
    its readers — the suppression machinery below and REP012's audit:
    ``(line, column, rule ids)``, the ids upper-cased in written order,
    ``None`` for a blanket pragma."""
    for number, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        yield number, match.start() + 1, None if rules is None else tuple(
            token.strip().upper() for token in rules.split(",") if token.strip()
        )


@dataclass(frozen=True)
class ModuleContext:
    """Everything a rule may inspect about one module."""

    path: str  # display path, e.g. "src/repro/core/wrangler.py"
    layer: str  # architectural layer, e.g. "core" or "errors"
    tree: ast.Module
    source: str
    is_main: bool  # a ``__main__.py`` CLI module

    @cached_property
    def imports(self) -> tuple[tuple[ast.stmt, str, str], ...]:
        """Every name the module's absolute imports bind, resolved once
        for every rule that asks what a name refers to: ``(statement,
        name, dotted target)``.  ``import datetime as _dt`` binds ``_dt``
        to ``datetime``, ``from time import sleep`` binds ``sleep`` to
        ``time.sleep`` and ``import os.path`` binds ``os`` to ``os``.
        Relative imports bind only the module's own package: left out."""
        bindings: list[tuple[ast.stmt, str, str]] = []
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    target = alias.name if alias.asname else root
                    bindings.append((node, alias.asname or root, target))
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    target = f"{node.module}.{alias.name}"
                    bindings.append((node, alias.asname or alias.name, target))
        return tuple(bindings)

    @cached_property
    def calls(self) -> tuple[tuple[ast.Call, str], ...]:
        """Every call whose callee is an imported name, or a chain of
        attributes on one, with the dotted name it resolves to:
        ``_dt.date.today()`` after ``import datetime as _dt`` resolves to
        ``datetime.date.today``."""
        targets = {name: target for _, name, target in self.imports}
        resolved: list[tuple[ast.Call, str]] = []
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.Call):
                continue
            attributes: list[str] = []
            func = node.func
            while isinstance(func, ast.Attribute):
                attributes.append(func.attr)
                func = func.value
            if isinstance(func, ast.Name) and func.id in targets:
                dotted = [targets[func.id], *reversed(attributes)]
                resolved.append((node, ".".join(dotted)))
        return tuple(resolved)

    def diagnostic(
        self,
        rule_id: str,
        node: ast.AST,
        message: str,
        fix_hint: str = "",
        severity: Severity | None = None,
    ) -> Diagnostic:
        """A diagnostic anchored at ``node``'s source position, at the
        rule's registered severity unless ``severity`` overrides it."""
        return Diagnostic(
            rule_id,
            severity or RULES[rule_id].severity,
            Location(
                self.path,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0) + 1,
            ),
            message,
            fix_hint,
        )


RULES: dict[str, Rule] = {}


def rule(
    rule_id: str, name: str, severity: Severity, description: str
) -> Callable:
    """Register a check function as a lint rule."""

    def decorate(check: Callable[[ModuleContext], Iterable[Diagnostic]]):
        if rule_id in RULES:
            raise ValueError(f"duplicate lint rule id {rule_id!r}")
        RULES[rule_id] = Rule(rule_id, name, severity, description, check)
        return check

    return decorate


def run_rules(
    context: ModuleContext, select: Iterable[str] | None = None
) -> list[Diagnostic]:
    """All findings of the selected rules (default: every rule) on one module."""
    chosen = set(select) if select is not None else set(RULES)
    findings: list[Diagnostic] = []
    for rule_id in sorted(chosen):
        registered = RULES.get(rule_id)
        if registered is None:
            continue
        findings.extend(registered.check(context))
    return findings


# -- helpers --------------------------------------------------------------


def _walk_with_type_checking(tree: ast.Module) -> Iterator[tuple[ast.AST, bool]]:
    """Yield ``(node, guarded)`` where guarded means inside TYPE_CHECKING."""

    def is_type_checking(test: ast.AST) -> bool:
        return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
            isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
        )

    def visit(node: ast.AST, guarded: bool) -> Iterator[tuple[ast.AST, bool]]:
        yield node, guarded
        if isinstance(node, ast.If) and is_type_checking(node.test):
            for child in node.body:
                yield from visit(child, True)
            for child in node.orelse:
                yield from visit(child, guarded)
            return
        for child in ast.iter_child_nodes(node):
            yield from visit(child, guarded)

    yield from visit(tree, False)


def _call_name(func: ast.AST) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _numeric_literal(node: ast.AST) -> float | None:
    """The value of a numeric literal expression, unary minus included."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        if isinstance(node.value, bool):
            return None
        return float(node.value)
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, (ast.USub, ast.UAdd))
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, (int, float))
        and not isinstance(node.operand.value, bool)
    ):
        sign = -1.0 if isinstance(node.op, ast.USub) else 1.0
        return sign * float(node.operand.value)
    return None


# -- REP001 ---------------------------------------------------------------


@rule(
    "REP001",
    "no-bare-assert",
    Severity.ERROR,
    "Library code must not rely on `assert` for runtime invariants: "
    "asserts vanish under `python -O`, silently disabling the check.",
)
def _check_no_bare_assert(context: ModuleContext) -> Iterator[Diagnostic]:
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Assert):
            yield context.diagnostic(
                "REP001",
                node,
                "bare `assert` in library code is stripped under -O",
                "raise a repro error type (WranglingError subclass) instead",
            )


# -- REP002 ---------------------------------------------------------------

_BROAD_EXCEPTIONS = {"Exception", "BaseException"}


def _broad_handler_name(handler: ast.ExceptHandler) -> str | None:
    if handler.type is None:
        return "bare except"
    candidates = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for candidate in candidates:
        name = _call_name(candidate)
        if name in _BROAD_EXCEPTIONS:
            return name
    return None


@rule(
    "REP002",
    "no-broad-except",
    Severity.ERROR,
    "Handlers must catch precise repro error types; `except Exception` "
    "swallows programming errors along with expected failures.",
)
def _check_no_broad_except(context: ModuleContext) -> Iterator[Diagnostic]:
    for node in ast.walk(context.tree):
        if isinstance(node, ast.ExceptHandler):
            broad = _broad_handler_name(node)
            if broad is not None:
                yield context.diagnostic(
                    "REP002",
                    node,
                    f"over-broad exception handler ({broad})",
                    "catch the precise WranglingError subclass",
                )


# -- REP003 ---------------------------------------------------------------

_MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "Counter"}


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return _call_name(node.func) in _MUTABLE_CALLS
    return False


@rule(
    "REP003",
    "no-mutable-default",
    Severity.ERROR,
    "Mutable default arguments are shared across calls; use None (or a "
    "dataclass default_factory).",
)
def _check_no_mutable_default(context: ModuleContext) -> Iterator[Diagnostic]:
    for node in ast.walk(context.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            default for default in node.args.kw_defaults if default is not None
        ]
        for default in defaults:
            if _is_mutable_literal(default):
                yield context.diagnostic(
                    "REP003",
                    default,
                    f"mutable default argument in {node.name}()",
                    "default to None and create the value in the body",
                )


# -- REP004 ---------------------------------------------------------------


@rule(
    "REP004",
    "evidence-confidence-range",
    Severity.ERROR,
    "Evidence confidences are probabilities: literal arguments to "
    "Evidence(...) must lie in [0, 1].",
)
def _check_evidence_confidence(context: ModuleContext) -> Iterator[Diagnostic]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        if _call_name(node.func) != "Evidence":
            continue
        literal = None
        if len(node.args) >= 2:
            literal = _numeric_literal(node.args[1])
        for keyword in node.keywords:
            if keyword.arg == "confidence":
                literal = _numeric_literal(keyword.value)
        if literal is not None and not 0.0 <= literal <= 1.0:
            yield context.diagnostic(
                "REP004",
                node,
                f"Evidence confidence literal {literal} outside [0, 1]",
                "confidences are probabilities; rescale the literal",
            )


# -- REP005 ---------------------------------------------------------------

_PURE_LAYERS = {"model", "quality"}


@rule(
    "REP005",
    "pure-layer-determinism",
    Severity.ERROR,
    "The model and quality layers must be deterministic: no `random` — "
    "randomness enters the system only as an explicit, seeded input.  "
    "Their wall-clock reads are REP011's, as everywhere outside repro.obs.",
)
def _check_pure_layer_determinism(
    context: ModuleContext,
) -> Iterator[Diagnostic]:
    if context.layer not in _PURE_LAYERS:
        return
    for node in dict.fromkeys(
        node
        for node, _, target in context.imports
        if target.split(".")[0] == "random"
    ):
        yield context.diagnostic(
            "REP005",
            node,
            f"`random` imported in pure layer {context.layer!r}",
            "accept a seeded random.Random as a parameter",
        )


# -- REP006 ---------------------------------------------------------------


def _module_all(tree: ast.Module) -> tuple[ast.AST, list[str]] | None:
    for node in tree.body:
        targets = (
            node.targets
            if isinstance(node, ast.Assign)
            else [node.target]
            if isinstance(node, ast.AnnAssign)
            else []
        )
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                value = node.value
                if isinstance(value, (ast.List, ast.Tuple)):
                    names = [
                        element.value
                        for element in value.elts
                        if isinstance(element, ast.Constant)
                        and isinstance(element.value, str)
                    ]
                    return node, names
    return None


def _top_level_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


@rule(
    "REP006",
    "all-consistency",
    Severity.ERROR,
    "__all__ must list only names the module defines (errors), and "
    "public top-level defs should be exported when __all__ exists (info).",
)
def _check_all_consistency(context: ModuleContext) -> Iterator[Diagnostic]:
    found = _module_all(context.tree)
    if found is None:
        return
    node, exported = found
    defined = _top_level_names(context.tree)
    # PEP 562: a module-level __getattr__ resolves names dynamically, so
    # statically undefined exports cannot be proven wrong.
    has_module_getattr = "__getattr__" in defined
    for name in exported:
        if name not in defined and not has_module_getattr:
            yield context.diagnostic(
                "REP006",
                node,
                f"__all__ exports undefined name {name!r}",
                "define the name or remove it from __all__",
            )
    for body_node in context.tree.body:
        if isinstance(
            body_node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            if body_node.name.startswith("_"):
                continue
            if body_node.name not in exported:
                yield context.diagnostic(
                    "REP006",
                    body_node,
                    f"public {body_node.name!r} is not exported by __all__",
                    "add it to __all__ or prefix it with an underscore",
                    severity=Severity.INFO,
                )


# -- REP007 ---------------------------------------------------------------

#: Architectural layer order: a module may import only same-or-lower rank.
LAYER_RANKS: Mapping[str, int] = {
    "errors": 0,
    "obs": 1,
    "model": 1,
    "context": 2,
    "sources": 2,
    "io": 2,
    "ingest": 3,
    "matching": 3,
    "extraction": 3,
    "selection": 3,
    "resolution": 4,
    "quality": 4,
    "mapping": 4,
    "fusion": 5,
    "feedback": 5,
    "scale": 5,
    "datagen": 5,
    "resilience": 6,
    "evaluation": 6,
    "baselines": 6,
    "analysis": 6,
    "core": 7,
    "repro": 8,  # the package root re-exports the public API
    "__main__": 9,
}


def _import_layer(module_name: str) -> str | None:
    parts = module_name.split(".")
    if parts[0] != "repro":
        return None
    return parts[1] if len(parts) > 1 else "repro"


@rule(
    "REP007",
    "layer-import-order",
    Severity.ERROR,
    "Imports must follow the architecture's layer order; e.g. model/ "
    "importing from core/ inverts the dependency structure.",
)
def _check_layer_import_order(context: ModuleContext) -> Iterator[Diagnostic]:
    own_rank = LAYER_RANKS.get(context.layer)
    if own_rank is None:
        return
    for node, guarded in _walk_with_type_checking(context.tree):
        if guarded:
            continue  # typing-only imports do not create runtime coupling
        targets: list[str] = []
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            targets = [node.module]
        for target in targets:
            target_layer = _import_layer(target)
            if target_layer is None or target_layer == context.layer:
                continue
            target_rank = LAYER_RANKS.get(target_layer)
            if target_rank is not None and target_rank > own_rank:
                yield context.diagnostic(
                    "REP007",
                    node,
                    f"layer {context.layer!r} (rank {own_rank}) imports from "
                    f"higher layer {target_layer!r} (rank {target_rank}): "
                    "architecture inversion",
                    "move the shared code down a layer or invert the call",
                )


# -- REP008 ---------------------------------------------------------------


@rule(
    "REP008",
    "public-class-docstring",
    Severity.WARNING,
    "Public classes are API surface and must carry a docstring.",
)
def _check_public_class_docstring(
    context: ModuleContext,
) -> Iterator[Diagnostic]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if node.name.startswith("_"):
            continue
        if ast.get_docstring(node) is None:
            yield context.diagnostic(
                "REP008",
                node,
                f"public class {node.name} has no docstring",
                "state what the class models and its invariants",
            )


# -- REP009 ---------------------------------------------------------------

#: Calls that return a new provenance/uncertainty-carrying value and have
#: no side effects: discarding their result silently loses the lineage or
#: belief update they computed.
_MUST_USE_CALLS = {
    "with_raw",
    "with_cells",
    "with_budget",
    "derive",
    "map_records",
    "pool_evidence",
    "log_odds_pool",
    "credible_interval",
}


@rule(
    "REP009",
    "no-discarded-result",
    Severity.ERROR,
    "Provenance and uncertainty values are immutable: calling with_raw/"
    "pool_evidence/... as a statement silently drops the result.",
)
def _check_no_discarded_result(context: ModuleContext) -> Iterator[Diagnostic]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Expr):
            continue
        call = node.value
        if not isinstance(call, ast.Call):
            continue
        name = _call_name(call.func)
        if name in _MUST_USE_CALLS:
            yield context.diagnostic(
                "REP009",
                node,
                f"result of {name}() is discarded: these are pure "
                "functions returning new provenance/uncertainty values",
                "assign or return the result",
            )


# -- REP010 ---------------------------------------------------------------


@rule(
    "REP010",
    "no-print",
    Severity.ERROR,
    "Library code must not print; only __main__ CLI modules own stdout.",
)
def _check_no_print(context: ModuleContext) -> Iterator[Diagnostic]:
    if context.is_main:
        return
    for node in ast.walk(context.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            yield context.diagnostic(
                "REP010",
                node,
                "print() in library code",
                "return/log the value, or move output to a __main__ module",
            )

# -- REP011 ---------------------------------------------------------------

#: Modules whose members constitute wall-clock reads.
_TIME_MODULES = {"time", "datetime"}
#: ``time`` functions that read the clock: ``from time import`` of one is
#: itself a clock read.
_CLOCK_FUNCTION_IMPORTS = {
    "time",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
}
#: Attribute calls that read the clock when rooted at a name imported from
#: a time module (``time.perf_counter()``, ``_dt.date.today()``, ...).
_CLOCK_CALL_ATTRS = _CLOCK_FUNCTION_IMPORTS | {"now", "utcnow", "today"}


@rule(
    "REP011",
    "clock-reads-via-obs",
    Severity.ERROR,
    "Wall-clock reads (time.time/perf_counter/monotonic, datetime.now/"
    "utcnow/today) are confined to repro.obs — everywhere else, the "
    "model and quality layers included, time enters through an injected "
    "Clock, so timings and timeliness scores stay deterministic under a "
    "ManualClock.",
)
def _check_clock_reads_via_obs(context: ModuleContext) -> Iterator[Diagnostic]:
    if context.layer == "obs":
        return
    for node, _, target in context.imports:
        module, _, name = target.partition(".")
        if module == "time" and name in _CLOCK_FUNCTION_IMPORTS:
            yield context.diagnostic(
                "REP011",
                node,
                f"clock function `{name}` imported from `time` outside "
                "repro.obs",
                "inject a repro.obs Clock and call current_time() instead",
            )
    for node, target in context.calls:
        # A bare-name clock call is reported at its `from time import`.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _CLOCK_CALL_ATTRS
            and target.split(".")[0] in _TIME_MODULES
        ):
            yield context.diagnostic(
                "REP011",
                node,
                f"wall-clock read `.{node.func.attr}()` outside repro.obs",
                "inject a repro.obs Clock (current_time/current_date/"
                "current_datetime) instead of reading the clock directly",
            )


# -- REP012 ---------------------------------------------------------------


@rule(
    "REP012",
    "unknown-noqa-rule",
    Severity.WARNING,
    "A `# repro: noqa[...]` pragma naming an unregistered rule id "
    "suppresses nothing — usually a typo that leaves the intended "
    "finding live.",
)
def _check_unknown_noqa_rule(context: ModuleContext) -> Iterator[Diagnostic]:
    for line, column, rules in noqa_pragmas(context.source):
        for name in rules or ():
            if name not in RULES:
                yield Diagnostic(
                    "REP012",
                    Severity.WARNING,
                    Location(context.path, line, column),
                    f"noqa pragma names unknown rule id {name!r} "
                    "(nothing is suppressed)",
                    "fix the rule id or drop the pragma",
                )


# -- REP013 ---------------------------------------------------------------

#: Layers allowed to physically wait: ``obs`` hosts the Clock's single
#: real ``time.sleep``; ``resilience`` is the subsystem whose job *is*
#: scheduled waiting (always spent through the Clock).
_SLEEP_EXEMPT_LAYERS = {"obs", "resilience"}


def _is_spin_loop(node: ast.While) -> bool:
    """A loop whose body does nothing: the classic busy-wait."""
    return all(
        isinstance(statement, (ast.Pass, ast.Continue))
        for statement in node.body
    )


@rule(
    "REP013",
    "no-raw-sleep",
    Severity.ERROR,
    "Extends REP011's clock discipline to waiting: `time.sleep` and "
    "busy-wait spin loops are forbidden outside repro.resilience and the "
    "Clock implementation in repro.obs — waiting goes through the "
    "injected Clock's wait(), so a ManualClock makes every backoff "
    "instantaneous and deterministic in tests.",
)
def _check_no_raw_sleep(context: ModuleContext) -> Iterator[Diagnostic]:
    if context.layer in _SLEEP_EXEMPT_LAYERS:
        return
    for node, _, target in context.imports:
        if target == "time.sleep":
            yield context.diagnostic(
                "REP013",
                node,
                "`sleep` imported from `time` outside repro.resilience",
                "inject a repro.obs Clock and call wait() instead of "
                "sleeping for real",
            )
    for node, target in context.calls:
        if target == "time.sleep":
            yield context.diagnostic(
                "REP013",
                node,
                "wall-clock sleep outside repro.resilience",
                "inject a repro.obs Clock and call wait() instead",
            )
    for node in ast.walk(context.tree):
        if isinstance(node, ast.While) and _is_spin_loop(node):
            yield context.diagnostic(
                "REP013",
                node,
                "busy-wait spin loop (body does nothing)",
                "wait on the injected Clock, or on a real condition",
            )


# -- REP014 ---------------------------------------------------------------

#: Layers allowed to touch the shared RNG: ``datagen`` synthesises test
#: worlds and seeds explicitly at its own entry points.
_RNG_EXEMPT_LAYERS = {"datagen"}

#: ``random`` module attributes that are *not* shared-state draws:
#: constructing an explicitly seeded generator is the sanctioned pattern.
_RNG_CLASS_NAMES = {"Random", "SystemRandom"}


def _shared_rng_member(target: str) -> bool:
    """Whether a resolved dotted name is a member of the ``random`` module
    that draws from (or reseeds) its one process-wide generator."""
    module, _, member = target.partition(".")
    return (
        module == "random"
        and member != ""
        and "." not in member
        and member not in _RNG_CLASS_NAMES
    )


@rule(
    "REP014",
    "no-shared-rng",
    Severity.ERROR,
    "Module-level `random.*` calls draw from one process-wide generator: "
    "a hidden shared-state dependency that breaks determinism the moment "
    "work is reordered or any other caller draws from it.  Construct an "
    "explicitly seeded random.Random and thread it through; only "
    "datagen/ is exempt.",
)
def _check_no_shared_rng(context: ModuleContext) -> Iterator[Diagnostic]:
    if context.layer in _RNG_EXEMPT_LAYERS:
        return
    for node, _, target in context.imports:
        if _shared_rng_member(target):
            yield context.diagnostic(
                "REP014",
                node,
                f"`{target.partition('.')[2]}` imported from "
                "`random` binds the shared module-level generator",
                "import random.Random, seed it explicitly, and thread the "
                "instance through",
            )
    for node, target in context.calls:
        if _shared_rng_member(target):
            yield context.diagnostic(
                "REP014",
                node,
                "call to shared module-level RNG "
                f"`{ast.unparse(node.func)}()`",
                "construct a seeded random.Random and call the method "
                "on the instance",
            )


# -- REP015 ---------------------------------------------------------------

#: The helpers every benchmark must report through (bare name or
#: ``helpers.``-qualified): ``emit_telemetry`` persists the
#: schema-checked snapshot, ``timed`` routes measurement through the
#: tracer.  ``emit`` alone is the legacy print-only path.
_BENCH_TELEMETRY_HELPERS = {"emit_telemetry", "timed"}


def _is_benchmark_module(context: ModuleContext) -> bool:
    parts = context.path.replace("\\", "/").split("/")
    return "benchmarks" in parts and parts[-1].startswith("bench_")


@rule(
    "REP015",
    "bench-telemetry-required",
    Severity.ERROR,
    "A benchmark script under benchmarks/ that never calls "
    "helpers.emit_telemetry or helpers.timed reports ad-hoc numbers the "
    "perf ratchet cannot see: every benchmark must route measurement "
    "through the observability layer, and raw print() "
    "calls must go through helpers.emit so results land under "
    "benchmarks/results/.",
)
def _check_bench_telemetry_required(
    context: ModuleContext,
) -> Iterator[Diagnostic]:
    if not _is_benchmark_module(context):
        return
    called: set[str] = set()
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            called.add(func.id)
        elif isinstance(func, ast.Attribute):
            called.add(func.attr)
    if not (_BENCH_TELEMETRY_HELPERS & called):
        yield context.diagnostic(
            "REP015",
            context.tree,
            "benchmark emits no telemetry: neither emit_telemetry() nor "
            "timed() is ever called",
            "wrap measured work in helpers.timed() and persist the "
            "snapshot with helpers.emit_telemetry()",
        )
    for node in ast.walk(context.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            yield context.diagnostic(
                "REP015",
                node,
                "raw print() in a benchmark bypasses benchmarks/results/",
                "report through helpers.emit() so the table is persisted "
                "for EXPERIMENTS.md",
            )


# -- REP016 ---------------------------------------------------------------

#: Layers sanctioned to perform raw file writes: ``io`` owns the atomic
#: primitive, ``ingest`` persists only through it.
_ATOMIC_WRITE_EXEMPT_LAYERS = {"io", "ingest"}

#: open() modes that persist (write, append, exclusive-create).
_WRITE_MODE_CHARS = set("wax")


def _open_write_mode(node: ast.Call) -> bool:
    """Whether an ``open``/``.open`` call provably uses a write mode.

    Only string-literal modes are judged (positional or ``mode=``): a
    dynamic mode, or an unrelated ``.open`` method (a tracer's span
    opener), is not evidence of persistence and must not fire.
    """
    mode: ast.expr | None = None
    if len(node.args) >= 2 and isinstance(node.func, ast.Name):
        mode = node.args[1]
    elif node.args and isinstance(node.func, ast.Attribute):
        mode = node.args[0]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(_WRITE_MODE_CHARS & set(mode.value))
    return False


@rule(
    "REP016",
    "atomic-writes-only",
    Severity.ERROR,
    "Raw open(..., 'w') / Path.write_text / Path.write_bytes persistence "
    "outside the sanctioned io/ and ingest/ layers can be torn by a "
    "crash mid-write — exactly the corruption the checkpoint journal "
    "quarantines.  Durable state must go through "
    "repro.io.atomic_write_bytes (write-temp, fsync, os.replace).",
)
def _check_atomic_writes_only(context: ModuleContext) -> Iterator[Diagnostic]:
    if context.layer not in LAYER_RANKS:
        return  # benchmarks/tests/tools are outside the architecture
    if context.layer in _ATOMIC_WRITE_EXEMPT_LAYERS:
        return
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "write_text",
            "write_bytes",
        ):
            yield context.diagnostic(
                "REP016",
                node,
                f"raw .{func.attr}() persistence outside the io/ingest "
                "layers is not crash-atomic",
                "serialise the payload and write it with "
                "repro.io.atomic_write_bytes",
            )
        elif (
            (isinstance(func, ast.Name) and func.id == "open")
            or (isinstance(func, ast.Attribute) and func.attr == "open")
        ) and _open_write_mode(node):
            yield context.diagnostic(
                "REP016",
                node,
                "raw open() in a write mode outside the io/ingest layers "
                "is not crash-atomic",
                "write through repro.io.atomic_write_bytes",
            )


# -- engine ---------------------------------------------------------------


@dataclass(frozen=True)
class LintResult:
    """Findings plus the bookkeeping reporters need."""

    diagnostics: tuple[Diagnostic, ...]
    checked_files: int
    suppressed: int

    @property
    def exit_code(self) -> int:
        """``0`` when no error-severity finding survived, else ``1``."""
        return 1 if has_errors(self.diagnostics) else 0


def _apply_suppressions(
    diagnostics: Iterable[Diagnostic], source: str
) -> tuple[list[Diagnostic], int]:
    """Drop the findings a ``# repro: noqa`` pragma on their line names
    (a blanket pragma names every rule); count what was dropped."""
    table = {line: rules for line, _, rules in noqa_pragmas(source)}
    kept: list[Diagnostic] = []
    suppressed = 0
    for diagnostic in diagnostics:
        line = diagnostic.location.line
        if line in table and (
            table[line] is None or diagnostic.rule in table[line]
        ):
            suppressed += 1
        else:
            kept.append(diagnostic)
    return kept, suppressed


def _module_identity(path: Path) -> tuple[str, bool]:
    """Architectural layer and CLI-ness of a file: the package under the
    last ``repro`` directory of its path (``repro`` itself for the
    package root), else the first dotted segment of its stem."""
    if path.stem == "__main__":
        return "__main__", True
    parts = path.parts
    if "repro" not in parts:
        return path.stem.split(".")[0], False
    below = parts[len(parts) - parts[::-1].index("repro"):]
    if not below or below[0] == "__init__.py":
        return "repro", False
    return below[0].split(".")[0], False


def lint_source(
    source: str,
    path: str = "<string>",
    select: Iterable[str] | None = None,
) -> LintResult:
    """Lint one module given as a string; its layer comes from ``path``."""
    layer, is_main = _module_identity(Path(path))
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as failure:
        raise UsageError(f"cannot parse {path}: {failure}") from failure
    context = ModuleContext(
        path=path,
        layer=layer,
        tree=tree,
        source=source,
        is_main=is_main,
    )
    kept, suppressed = _apply_suppressions(
        run_rules(context, select=select), source
    )
    return LintResult(tuple(sort_diagnostics(kept)), 1, suppressed)


def _discover(paths: Sequence[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            raise UsageError(f"no such file or directory: {raw}")
    return files


def lint_paths(
    paths: Sequence[str], select: Iterable[str] | None = None
) -> LintResult:
    """Lint every ``.py`` file under the given paths."""
    if select is not None:
        unknown = set(select) - set(RULES)
        if unknown:
            raise UsageError(
                f"unknown rule id(s): {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(RULES))})"
            )
    diagnostics: list[Diagnostic] = []
    suppressed = 0
    files = _discover(paths)
    for file in files:
        result = lint_source(
            file.read_text(encoding="utf-8"), path=str(file), select=select
        )
        diagnostics.extend(result.diagnostics)
        suppressed += result.suppressed
    return LintResult(
        tuple(sort_diagnostics(diagnostics)), len(files), suppressed
    )


# -- report ---------------------------------------------------------------


def render_json(
    diagnostics: Sequence[Diagnostic], checked_files: int = 0
) -> str:
    """The machine-readable report (stable key order, sorted findings)."""
    ordered = sort_diagnostics(diagnostics)
    counts = count_by_severity(ordered)
    payload = {
        "diagnostics": [
            {
                "rule": d.rule,
                "severity": d.severity.value,
                "file": d.location.file,
                "line": d.location.line,
                "column": d.location.column,
                "node": d.location.node,
                "message": d.message,
                "fix_hint": d.fix_hint,
            }
            for d in ordered
        ],
        "summary": {
            "total": len(ordered),
            "errors": counts[Severity.ERROR],
            "warnings": counts[Severity.WARNING],
            "infos": counts[Severity.INFO],
            "checked_files": checked_files,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def main(argv: Sequence[str] | None = None) -> int:
    """Lint, print the report, return the exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--select", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format",
    )
    args = parser.parse_args(argv)
    select = None
    if args.select:
        select = [
            token.strip().upper()
            for token in args.select.split(",")
            if token.strip()
        ]
    try:
        result = lint_paths(args.paths, select=select)
    except UsageError as failure:
        sys.stderr.write(f"error: {failure}\n")
        return 2
    render = render_json if args.format == "json" else render_text
    sys.stdout.write(
        render(result.diagnostics, checked_files=result.checked_files) + "\n"
    )
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
