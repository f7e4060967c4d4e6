"""Determinism rules: seeded randomness, ordered serialization, and
picklable multiprocessing workers.

The reproduction's headline guarantees — identical experiment output
for identical seeds, and byte-identical serial/parallel training (see
:meth:`repro.core.deltas.DeltaMerger.apply`) — are easy to break
with one careless call: a module-level ``random.random()``, a ``for``
loop over a ``set`` inside ``to_dict``, or a lambda handed to a
``multiprocessing.Pool``.  These rules make each of those a lint
failure instead of a flaky benchmark.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.analysis.core import LintContext, Rule
from repro.analysis.registry import register

#: ``random.<fn>`` calls that draw from the process-global RNG.
_GLOBAL_RNG_FUNCTIONS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices",
        "shuffle", "sample", "uniform", "getrandbits", "gauss",
        "betavariate", "expovariate", "normalvariate", "triangular",
    }
)

#: Function names whose bodies feed serialization or exact-merge paths.
_SERIALIZATION_NAME_RE_PARTS = (
    "to_dict", "from_dict", "to_json", "merge",
)
_SERIALIZATION_PREFIXES = ("save", "dump", "write", "serial")

#: ``Pool``/``Process``/executor entry points that pickle their callee.
_POOL_METHODS = frozenset(
    {
        "map", "imap", "imap_unordered", "map_async",
        "starmap", "starmap_async", "apply", "apply_async", "submit",
    }
)
_POOL_CONSTRUCTORS = frozenset({"Pool", "Process", "ProcessPoolExecutor"})


def _is_serialization_name(name: str) -> bool:
    return name in _SERIALIZATION_NAME_RE_PARTS or any(
        name.startswith(prefix) for prefix in _SERIALIZATION_PREFIXES
    )


@register
class UnseededRandomRule(Rule):
    """FPM003: no process-global / unseeded randomness."""

    rule_id = "FPM003"
    name = "unseeded-random"
    summary = (
        "module-level random.* calls, random.seed, and seedless "
        "random.Random()/default_rng() break run-to-run reproducibility"
    )

    def __init__(self, context: LintContext) -> None:
        super().__init__(context)
        #: Names imported via ``from random import <name>``.
        self._from_random: Set[str] = set()

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                self._from_random.add(alias.asname or alias.name)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name) and value.id == "random":
                self._check_random_module_call(node, func.attr)
            elif (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in ("np", "numpy")
            ):
                self._check_numpy_random_call(node, func.attr)
        elif isinstance(func, ast.Name) and func.id in self._from_random:
            if func.id in _GLOBAL_RNG_FUNCTIONS:
                self.report(
                    node,
                    f"{func.id}() imported from random draws from the "
                    "process-global RNG; pass a seeded random.Random",
                )
            elif func.id == "Random" and not node.args:
                self.report(
                    node, "Random() without a seed is nondeterministic"
                )
        self.generic_visit(node)

    def _check_random_module_call(self, node: ast.Call, attr: str) -> None:
        if attr in _GLOBAL_RNG_FUNCTIONS:
            self.report(
                node,
                f"random.{attr}() draws from the process-global RNG; "
                "pass a seeded random.Random instance instead",
            )
        elif attr == "seed":
            self.report(
                node,
                "random.seed mutates global state other code observes; "
                "construct a local random.Random(seed)",
            )
        elif attr == "Random" and not node.args:
            self.report(
                node, "random.Random() without a seed is nondeterministic"
            )

    def _check_numpy_random_call(self, node: ast.Call, attr: str) -> None:
        if attr == "default_rng":
            if not node.args:
                self.report(
                    node,
                    "numpy default_rng() without a seed is "
                    "nondeterministic",
                )
        else:
            self.report(
                node,
                f"numpy global np.random.{attr}() is process-global "
                "state; use a seeded Generator",
            )


@register
class UnorderedSerializationRule(Rule):
    """FPM004: no set-ordered iteration feeding serialization/merge."""

    rule_id = "FPM004"
    name = "unordered-serialization"
    summary = (
        "iterating a set inside to_dict/merge/save paths makes output "
        "ordering hash-dependent, breaking byte-identical artefacts"
    )

    def __init__(self, context: LintContext) -> None:
        super().__init__(context)
        self._serialization_depth = 0

    def _visit_function(self, node: ast.AST, name: str) -> None:
        matched = _is_serialization_name(name)
        self._serialization_depth += 1 if matched else 0
        self.generic_visit(node)
        self._serialization_depth -= 1 if matched else 0

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.name)

    @staticmethod
    def _is_unordered(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    def _check_iter(self, iter_node: ast.AST) -> None:
        if self._serialization_depth > 0 and self._is_unordered(iter_node):
            self.report(
                iter_node,
                "iteration over an unordered set inside a "
                "serialization/merge path; wrap it in sorted() so the "
                "output is byte-stable across processes",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)


@register
class UnpicklableWorkerRule(Rule):
    """FPM005: no lambdas/nested functions handed to worker pools."""

    rule_id = "FPM005"
    name = "unpicklable-worker"
    summary = (
        "lambdas and nested functions cannot be pickled to "
        "multiprocessing workers; use a module-level function"
    )

    def __init__(self, context: LintContext) -> None:
        super().__init__(context)
        self._active = False
        self._nested_defs: Set[str] = set()

    def check(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                if any(
                    alias.name.split(".")[0]
                    in ("multiprocessing", "concurrent")
                    for alias in node.names
                ):
                    self._active = True
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in ("multiprocessing", "concurrent"):
                    self._active = True
        if not self._active:
            return
        self._collect_nested_defs(tree)
        self.visit(tree)

    def _collect_nested_defs(self, tree: ast.Module) -> None:
        functions = [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for function in functions:
            for child in ast.walk(function):
                if child is function:
                    continue
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    self._nested_defs.add(child.name)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        candidates: List[ast.AST] = []
        if isinstance(func, ast.Attribute) and func.attr in _POOL_METHODS:
            candidates.extend(node.args[:1])
            candidates.extend(
                keyword.value
                for keyword in node.keywords
                if keyword.arg in ("func", "initializer", "fn")
            )
        constructor: Optional[str] = None
        if isinstance(func, ast.Name) and func.id in _POOL_CONSTRUCTORS:
            constructor = func.id
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in _POOL_CONSTRUCTORS
        ):
            constructor = func.attr
        if constructor is not None:
            candidates.extend(
                keyword.value
                for keyword in node.keywords
                if keyword.arg in ("target", "initializer")
            )
        for candidate in candidates:
            self._check_worker(candidate)
        self.generic_visit(node)

    def _check_worker(self, node: ast.AST) -> None:
        if isinstance(node, ast.Lambda):
            self.report(
                node,
                "lambda passed to a multiprocessing entry point cannot "
                "be pickled; define a module-level function",
            )
        elif isinstance(node, ast.Name) and node.id in self._nested_defs:
            self.report(
                node,
                f"nested function {node.id!r} passed to a "
                "multiprocessing entry point cannot be pickled; move it "
                "to module level",
            )
