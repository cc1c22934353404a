"""AST-based purity certification for dataflow node callables.

The dataflow engine memoises node values and replays them on pull; that
is only sound when recomputing a node would produce the same value —
i.e. when the node body is *pure* in the engine's sense:

* **no module-global mutation** — no ``global``/``nonlocal`` rebinding,
  no assignment to module attributes;
* **no I/O** — no file, network, or process access (``open``, ``input``,
  ``print``, the ``os``/``subprocess``/``socket``/``urllib`` families);
* **no clock reads outside** :mod:`repro.obs` — wall-clock calls such as
  ``time.time()`` or ``datetime.now()`` make a memoised value a lie; the
  observability layer's injected clock is the sanctioned time source;
* **no ambient randomness** — the ``random``/``secrets`` modules (a
  seeded generator threaded through instance state is fine: it is part
  of the state the engine invalidates on).

Mutation of the wrangler's *own* working state (``self.working.put``,
telemetry counters) is explicitly sanctioned: the blackboard is
versioned, observable, and participates in invalidation, so it is part
of the dataflow's state, not an ambient side channel.

The analyser never executes the callable.  It parses the defining source
file (cached per path), locates the function's AST node via its code
object, resolves ``self`` from the method binding (the wrangler's node
bodies are bound stage methods) or from the closure of a ``lambda
inputs: self._stage(...)``, and follows ``self.<method>`` calls one hop
deep.  Verdicts are conservative three-valued:

* ``pure`` — no trigger found in the body or its followed callees;
* ``impure`` — at least one trigger found, with reasons;
* ``unknown`` — the source could not be located or parsed (builtins,
  C extensions, REPL lambdas), so no certificate can be issued.
"""

from __future__ import annotations

import ast
import inspect
import os
from dataclasses import dataclass, field
from types import CodeType, FunctionType, ModuleType
from typing import Any, Callable, Iterable

__all__ = [
    "PurityVerdict",
    "PurityAnalyser",
    "certify_callable",
    "certify_dataflow",
]


#: Builtins whose mere call is I/O (or arbitrary-code evaluation, which
#: subsumes I/O as far as a certificate is concerned).
_IO_BUILTINS = frozenset(
    {"open", "input", "print", "breakpoint", "eval", "exec", "compile",
     "__import__"}
)

#: Modules whose use inside a node body voids the certificate outright.
_IO_MODULE_ROOTS = frozenset(
    {"os", "sys", "subprocess", "socket", "shutil", "urllib", "requests",
     "http", "ftplib", "smtplib", "pathlib", "tempfile", "random",
     "secrets"}
)

#: Attribute calls that read a clock when made on the ``time`` or
#: ``datetime`` modules (or the classes they export).
_CLOCK_ATTRS = frozenset(
    {"time", "perf_counter", "perf_counter_ns", "monotonic",
     "monotonic_ns", "process_time", "process_time_ns", "now", "utcnow",
     "today"}
)

#: Module names whose attributes count as clock sources for the check
#: above.  :mod:`repro.obs` is deliberately absent: its injected clock is
#: the sanctioned way for a node to see time.
_CLOCK_MODULES = frozenset({"time", "datetime"})


@dataclass(frozen=True)
class PurityVerdict:
    """The certificate (or refusal) for one callable."""

    status: str  # "pure" | "impure" | "unknown"
    reasons: tuple[str, ...] = ()

    @property
    def is_pure(self) -> bool:
        return self.status == "pure"

    def render(self) -> str:
        if not self.reasons:
            return self.status
        return f"{self.status}: " + "; ".join(self.reasons)


_PURE = PurityVerdict("pure")


def _unknown(reason: str) -> PurityVerdict:
    return PurityVerdict("unknown", (reason,))


@dataclass
class _Scan:
    """Mutable state for one certification walk."""

    reasons: list[str] = field(default_factory=list)
    visited: set[CodeType] = field(default_factory=set)


class PurityAnalyser:
    """Certify callables as pure without executing them.

    One analyser instance may certify many callables; parsed module ASTs
    and their definition indexes are cached per source path and verdicts
    per ``(code, self type)`` pair, so re-certifying the node lambdas of
    every wrangler in a process parses and walks each defining file once.
    """

    #: How many ``self.<method>`` hops to follow from the node lambda.
    max_hops: int = 1

    def __init__(self) -> None:
        self._ast_cache: dict[str, ast.Module | None] = {}
        self._def_index: dict[str, dict[tuple[str, int], list[ast.AST]]] = {}
        self._verdicts: dict[tuple[CodeType, type | None], PurityVerdict] = {}

    # -- entry point -----------------------------------------------------

    def analyse(self, fn: Callable[..., Any]) -> PurityVerdict:
        """The purity verdict for ``fn``."""
        fn, self_obj = self._unwrap(fn)
        code = getattr(fn, "__code__", None)
        if not isinstance(code, CodeType):
            return _unknown("no Python code object (builtin or C callable)")
        if self_obj is None:
            self_obj = self._closure_self(fn)
        key = (code, type(self_obj) if self_obj is not None else None)
        cached = self._verdicts.get(key)
        if cached is not None:
            return cached
        verdict = self._analyse_code(fn, code, self_obj)
        self._verdicts[key] = verdict
        return verdict

    # -- callable plumbing ----------------------------------------------

    @staticmethod
    def _unwrap(fn: Callable[..., Any]) -> tuple[Callable[..., Any], Any]:
        """The plain function under partials and method binding, and the
        object a bound method carried as its ``self`` (else ``None``)."""
        bound = None
        while True:
            if hasattr(fn, "func") and not hasattr(fn, "__code__"):
                fn = fn.func  # functools.partial
            elif inspect.ismethod(fn):
                bound, fn = fn.__self__, fn.__func__
            else:
                return fn, bound

    @staticmethod
    def _closure_self(fn: Callable[..., Any]) -> Any:
        """The object ``self`` refers to inside a closure, when decidable.

        The wrangler's node bodies are bound stage methods (resolved by
        :meth:`_unwrap`); a hand-added ``lambda inputs:
        self._stage(...)`` created inside a method keeps ``self`` in a
        closure cell instead.
        """
        code = getattr(fn, "__code__", None)
        closure = getattr(fn, "__closure__", None)
        if code is None or not closure:
            return None
        try:
            index = code.co_freevars.index("self")
        except ValueError:
            return None
        try:
            return closure[index].cell_contents
        except ValueError:  # empty cell
            return None

    # -- AST location ----------------------------------------------------

    def _module_tree(self, filename: str) -> ast.Module | None:
        if filename in self._ast_cache:
            return self._ast_cache[filename]
        tree: ast.Module | None = None
        if os.path.isfile(filename):
            try:
                with open(filename, "r", encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), filename=filename)
            except (OSError, SyntaxError, ValueError):
                tree = None
        self._ast_cache[filename] = tree
        return tree

    def _definitions(
        self, filename: str
    ) -> dict[tuple[str, int], list[ast.AST]]:
        """``(co_name, first line) -> nodes`` of one file, walked once.

        A decorated function is filed under its ``def`` line and under
        its first decorator's line (where ``co_firstlineno`` points).
        """
        index = self._def_index.get(filename)
        if index is None:
            index = self._def_index[filename] = {}
            tree = self._module_tree(filename)
            for node in ast.walk(tree) if tree is not None else ():
                if isinstance(node, ast.Lambda):
                    index.setdefault(("<lambda>", node.lineno), []).append(node)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    decorated = {d.lineno for d in node.decorator_list[:1]}
                    for line in {node.lineno} | decorated:
                        index.setdefault((node.name, line), []).append(node)
        return index

    def _locate(self, code: CodeType) -> ast.AST | None:
        """The AST node whose compilation produced ``code``, or ``None``."""
        matches = self._definitions(code.co_filename).get(
            (code.co_name, code.co_firstlineno), ()
        )
        if len(matches) != 1:
            return None  # ambiguous (two lambdas on one line) or missing
        return matches[0]

    # -- the certification walk -----------------------------------------

    def _analyse_code(
        self, fn: Callable[..., Any], code: CodeType, self_obj: Any
    ) -> PurityVerdict:
        node = self._locate(code)
        if node is None:
            return _unknown(
                f"cannot locate source of {code.co_name!r} "
                f"({code.co_filename}:{code.co_firstlineno})"
            )
        scan = _Scan()
        scan.visited.add(code)
        fn_globals = getattr(fn, "__globals__", {}) or {}
        body = node.body if isinstance(node, ast.Lambda) else node
        self._scan(body, fn_globals, self_obj, scan, hops=self.max_hops)
        if scan.reasons:
            return PurityVerdict("impure", tuple(dict.fromkeys(scan.reasons)))
        return _PURE

    def _scan(
        self,
        root: ast.AST,
        fn_globals: dict[str, Any],
        self_obj: Any,
        scan: _Scan,
        hops: int,
    ) -> None:
        for node in ast.walk(root):
            if isinstance(node, ast.Global):
                scan.reasons.append(
                    f"declares global {', '.join(node.names)}"
                )
            elif isinstance(node, ast.Nonlocal):
                scan.reasons.append(
                    f"declares nonlocal {', '.join(node.names)}"
                )
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                self._check_import(node, scan)
            elif isinstance(node, ast.Call):
                self._check_call(node, fn_globals, self_obj, scan, hops)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                self._check_assignment(node, fn_globals, scan)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Load
            ):
                resolved = fn_globals.get(node.id)
                root_name = self._module_root(resolved)
                if root_name in _IO_MODULE_ROOTS:
                    scan.reasons.append(
                        f"touches I/O module {root_name!r} via {node.id!r}"
                    )

    @staticmethod
    def _module_root(obj: Any) -> str | None:
        if isinstance(obj, ModuleType):
            return obj.__name__.split(".", 1)[0]
        return None

    @staticmethod
    def _check_import(
        node: ast.Import | ast.ImportFrom, scan: _Scan
    ) -> None:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = [node.module or ""]
        for name in names:
            root = name.split(".", 1)[0]
            if root in _IO_MODULE_ROOTS:
                scan.reasons.append(f"imports I/O module {name!r} in body")

    def _check_assignment(
        self,
        node: ast.Assign | ast.AugAssign,
        fn_globals: dict[str, Any],
        scan: _Scan,
    ) -> None:
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            base = target.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name):
                resolved = fn_globals.get(base.id)
                if isinstance(resolved, ModuleType):
                    scan.reasons.append(
                        f"assigns attribute of module {base.id!r}"
                    )

    def _check_call(
        self,
        node: ast.Call,
        fn_globals: dict[str, Any],
        self_obj: Any,
        scan: _Scan,
        hops: int,
    ) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in _IO_BUILTINS and func.id not in fn_globals:
                scan.reasons.append(f"calls I/O builtin {func.id}()")
                return
            resolved = fn_globals.get(func.id)
            if isinstance(resolved, FunctionType) and hops > 0:
                module_name = getattr(resolved, "__module__", "") or ""
                if module_name.startswith("repro"):
                    self._follow(resolved, self_obj, scan, hops - 1)
            return
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        # self.<method>(...): follow the method body one hop.
        if (
            isinstance(base, ast.Name)
            and base.id == "self"
            and self_obj is not None
            and hops > 0
        ):
            method = inspect.getattr_static(type(self_obj), func.attr, None)
            if isinstance(method, FunctionType):
                self._follow(method, self_obj, scan, hops - 1)
            return
        # module.attr(...) where the module is forbidden or a clock.
        root = base
        while isinstance(root, ast.Attribute):
            root = root.value
        if not isinstance(root, ast.Name):
            return
        resolved = fn_globals.get(root.id)
        root_name = self._module_root(resolved)
        if root_name in _IO_MODULE_ROOTS:
            scan.reasons.append(
                f"calls into I/O module {root_name!r} via {root.id!r}"
            )
            return
        if func.attr in _CLOCK_ATTRS:
            if root_name in _CLOCK_MODULES or self._is_clock_class(resolved):
                scan.reasons.append(
                    f"reads the clock via {root.id}.{func.attr}() "
                    "(inject time through repro.obs instead)"
                )

    @staticmethod
    def _is_clock_class(obj: Any) -> bool:
        """Whether ``obj`` is one of datetime's exported classes, so that
        ``date.today()`` / ``datetime.now()`` via from-imports are caught."""
        return (
            isinstance(obj, type)
            and getattr(obj, "__module__", None) == "datetime"
        )

    def _follow(
        self,
        fn: FunctionType,
        self_obj: Any,
        scan: _Scan,
        hops: int,
    ) -> None:
        code = fn.__code__
        if code in scan.visited:
            return
        scan.visited.add(code)
        node = self._locate(code)
        if node is None:
            return  # unreadable callee: the certificate covers one hop
        fn_globals = getattr(fn, "__globals__", {}) or {}
        self._scan(node, fn_globals, self_obj, scan, hops)


def certify_callable(
    fn: Callable[..., Any], analyser: PurityAnalyser | None = None
) -> PurityVerdict:
    """One-shot certification (creates a throwaway analyser if needed)."""
    return (analyser or PurityAnalyser()).analyse(fn)


def certify_dataflow(
    dataflow: Any, analyser: PurityAnalyser | None = None
) -> dict[str, PurityVerdict]:
    """Certify every node callable of a dataflow and record the verdicts.

    Works through the dataflow's own :meth:`certify` hook when it has
    one (so the engine records verdicts on its nodes); otherwise falls
    back to analysing ``node_callables()`` if exposed.  Returns the
    verdict map either way.
    """
    analyser = analyser or PurityAnalyser()
    if hasattr(dataflow, "certify"):
        return dict(dataflow.certify(analyser=analyser))
    callables: Iterable[tuple[str, Callable[..., Any]]] = ()
    if hasattr(dataflow, "node_callables"):
        callables = dataflow.node_callables()
    return {name: analyser.analyse(fn) for name, fn in callables}
