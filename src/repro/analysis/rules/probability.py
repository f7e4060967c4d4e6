"""Probability-domain rules (paper Sec. IV: ``P(pw)`` is a product).

``P(pw)`` is a product of many rule probabilities (Fig. 11 of the
paper).  Two numeric hazards follow:

* comparing such floats with ``==``/``!=`` is meaningless once any
  rounding has occurred — only the exact sentinels ``0`` (unreachable
  derivation) and ``1`` (certain factor) are safe to test exactly;
* accumulating the product in the linear domain underflows to 0.0
  for long passwords, silently conflating "weak but derivable" with
  "underivable".  Products must stay inside the small set of blessed
  kernels that short-circuit at exact zero, or move to log space.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.core import (
    LintContext,
    Rule,
    is_probability_expression,
)
from repro.analysis.registry import register

#: Functions allowed to accumulate linear-domain probability products.
#: Each one short-circuits on exact 0.0 and is covered by equivalence
#: tests, so the underflow window is the factor count of a single
#: password (bounded by its length), not of a whole corpus.
BLESSED_PRODUCT_SCOPES = frozenset(
    {
        "FuzzyGrammar.segment_probability",
        "FuzzyGrammar.derivation_probability",
        "FrozenGrammar.derivation_probability",
        "PCFGMeter.probability",
        "PCFGMeter.sample",
        "MarkovMeter.probability",
        "MarkovMeter._sample_once",
        # The attack engine replicates FrozenGrammar.derivation_probability's
        # factor association so emitted probabilities stay bit-identical
        # to the kernel (asserted in tests/test_attacks_engine.py).
        "AttackEngine._enumerate",
        "AttackEngine._terminal_stream",
        "AttackEngine._case_options",
    }
)


def _is_exact_sentinel(node: ast.AST) -> bool:
    """Literals that are exact in IEEE-754: 0, 1 and infinity."""
    if isinstance(node, ast.Constant):
        value = node.value
        return (
            not isinstance(value, bool)
            and isinstance(value, (int, float))
            and value in (0, 1)
        )
    # math.inf / float("inf"): the entropy of a zero-probability
    # password, also exactly representable.
    if isinstance(node, ast.Attribute) and node.attr == "inf":
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Constant)
    ):
        return node.args[0].value in ("inf", "-inf")
    return False


@register
class FloatProbabilityCompareRule(Rule):
    """FPM001: no raw ``==``/``!=`` between probability floats."""

    rule_id = "FPM001"
    name = "float-probability-compare"
    summary = (
        "probability/entropy values may be ==/!=-compared only against "
        "the exact sentinels 0, 1 and inf; use math.isclose otherwise"
    )

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[index], operands[index + 1]
            if not (
                is_probability_expression(left)
                or is_probability_expression(right)
            ):
                continue
            if _is_exact_sentinel(left) or _is_exact_sentinel(right):
                continue
            self.report(
                node,
                "floating-point ==/!= on a probability/entropy value; "
                "compare against the exact sentinels 0/1/inf or use "
                "math.isclose",
            )
        self.generic_visit(node)


@register
class RawProbabilityProductRule(Rule):
    """FPM002: no open-ended linear-domain probability products."""

    rule_id = "FPM002"
    name = "raw-probability-product"
    summary = (
        "math.prod / *=-accumulation over rule probabilities underflows "
        "outside the blessed zero-short-circuiting kernels; use log space"
    )

    def __init__(self, context: LintContext) -> None:
        super().__init__(context)
        self._scope: List[str] = []

    # --- scope tracking ------------------------------------------------

    def _qualified(self) -> str:
        return ".".join(self._scope)

    def _in_blessed_scope(self) -> bool:
        qualified = self._qualified()
        return any(
            qualified == blessed or qualified.endswith("." + blessed)
            for blessed in BLESSED_PRODUCT_SCOPES
        )

    def _visit_scoped(self, node: ast.AST, name: str) -> None:
        self._scope.append(name)
        self.generic_visit(node)
        self._scope.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._visit_scoped(node, node.name)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scoped(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scoped(node, node.name)

    # --- checks --------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        is_math_prod = (
            isinstance(func, ast.Attribute)
            and func.attr == "prod"
            and isinstance(func.value, ast.Name)
            and func.value.id == "math"
        ) or (isinstance(func, ast.Name) and func.id == "prod")
        if is_math_prod and not self._in_blessed_scope():
            self.report(
                node,
                "math.prod over probabilities underflows for long "
                "factor chains; sum logs instead (or extend a blessed "
                "kernel)",
            )
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if (
            isinstance(node.op, ast.Mult)
            and is_probability_expression(node.target)
            and not self._in_blessed_scope()
        ):
            self.report(
                node,
                "probability accumulated with *= outside a blessed "
                "kernel; chain products underflow — accumulate "
                "log-probabilities instead",
            )
        self.generic_visit(node)
