"""Hygiene rules: silent exception handling, mutable defaults, and
annotation coverage of the public API.

These are the generic-but-load-bearing rules: a swallowed exception in
a scoring path silently turns "crash" into "wrong benchmark number",
a mutable default turns two meters into secret shared state, and an
unannotated public function is invisible to the strict mypy gate that
``make lint`` runs over :mod:`repro.core`.
"""

from __future__ import annotations

import ast
from typing import List, Union

from repro.analysis.core import Rule
from repro.analysis.registry import register

_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})

#: Calls producing a fresh mutable container on every evaluation —
#: except that as a default they are evaluated exactly once.
_MUTABLE_CONSTRUCTORS = frozenset(
    {
        "list", "dict", "set", "bytearray",
        "Counter", "defaultdict", "OrderedDict", "deque",
    }
)

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@register
class SilentExceptRule(Rule):
    """FPM006: no bare ``except:`` and no ``except Exception: pass``."""

    rule_id = "FPM006"
    name = "silent-except"
    summary = (
        "bare except and except Exception: pass hide scoring bugs as "
        "silently-wrong benchmark numbers; catch narrowly and handle"
    )

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node,
                "bare except catches SystemExit/KeyboardInterrupt too; "
                "name the exceptions this path can actually handle",
            )
        elif self._is_broad(node.type) and self._swallows(node.body):
            self.report(
                node,
                "except Exception with a pass-only body swallows every "
                "error; catch narrowly or handle the failure",
            )
        self.generic_visit(node)

    @staticmethod
    def _is_broad(type_node: ast.AST) -> bool:
        names: List[ast.AST] = (
            list(type_node.elts)
            if isinstance(type_node, ast.Tuple)
            else [type_node]
        )
        return any(
            isinstance(name, ast.Name) and name.id in _BROAD_EXCEPTIONS
            for name in names
        )

    @staticmethod
    def _swallows(body: List[ast.stmt]) -> bool:
        if len(body) != 1:
            return False
        statement = body[0]
        if isinstance(statement, ast.Pass):
            return True
        return (
            isinstance(statement, ast.Expr)
            and isinstance(statement.value, ast.Constant)
            and statement.value.value is Ellipsis
        )


@register
class MutableDefaultRule(Rule):
    """FPM007: no mutable default argument values."""

    rule_id = "FPM007"
    name = "mutable-default"
    summary = (
        "mutable defaults are evaluated once and shared across calls; "
        "default to None and construct inside the function"
    )

    def _check_function(self, node: _FunctionNode) -> None:
        defaults = list(node.args.defaults) + [
            default
            for default in node.args.kw_defaults
            if default is not None
        ]
        for default in defaults:
            if self._is_mutable(default):
                self.report(
                    default,
                    f"mutable default in {node.name}(); use None and "
                    "build the container inside the body",
                )

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set,
             ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_CONSTRUCTORS
        )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)


@register
class MissingAnnotationsRule(Rule):
    """FPM008: public API functions must be fully annotated."""

    rule_id = "FPM008"
    name = "missing-annotations"
    summary = (
        "public module-level functions and public methods of public "
        "classes need parameter and return annotations"
    )

    def check(self, tree: ast.Module) -> None:
        for statement in tree.body:
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                self._check_signature(statement, method=False)
            elif isinstance(
                statement, ast.ClassDef
            ) and not statement.name.startswith("_"):
                for member in statement.body:
                    if isinstance(
                        member, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        self._check_signature(member, method=True)

    def _check_signature(
        self, node: _FunctionNode, method: bool
    ) -> None:
        if node.name.startswith("_"):
            return
        if any(
            isinstance(decorator, ast.Name)
            and decorator.id == "overload"
            for decorator in node.decorator_list
        ):
            return
        args = node.args
        positional = args.posonlyargs + args.args
        if method and positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        missing = [
            argument.arg
            for argument in positional + args.kwonlyargs
            if argument.annotation is None
        ]
        for vararg in (args.vararg, args.kwarg):
            if vararg is not None and vararg.annotation is None:
                missing.append(vararg.arg)
        if missing:
            self.report(
                node,
                f"public function {node.name}() is missing parameter "
                "annotations: " + ", ".join(missing),
            )
        if node.returns is None:
            self.report(
                node,
                f"public function {node.name}() is missing a return "
                "annotation",
            )
