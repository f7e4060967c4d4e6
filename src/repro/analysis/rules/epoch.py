"""FPM013: epoch discipline on grammar count-table mutations.

:class:`~repro.core.frozen.FrozenGrammar` snapshots invalidate lazily
by comparing their captured epoch against ``FuzzyGrammar._epoch``
(DESIGN.md §11).  The whole scheme rests on one invariant: *every*
code path that mutates a count table also bumps the epoch.  Miss one
and a frozen snapshot keeps serving probabilities from a grammar that
no longer exists — bit-exact wrongness that only shows up as a stale
score long after the mutation.

The index tells the rule which classes are epoch guarded (their
``__init__`` assigns ``_epoch`` alongside count tables) so the rule
generalises beyond ``FuzzyGrammar`` by construction, and resolves
parameter annotations so out-of-class mutators — a function taking
``grammar: FuzzyGrammar`` and adding to its tables — are held to the
same bar as methods such as :meth:`FuzzyGrammar.fold`.  "On every
path" is enforced structurally: the bump must be an unconditional
top-level statement of the mutating function; a bump inside an ``if``
earns a violation that has to be justified with a suppression
explaining why the guarded paths are no-ops.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from repro.analysis.core import ProjectRule
from repro.analysis.project import (
    GRAMMAR_TABLE_ATTRIBUTES,
    ModuleInfo,
    ProjectIndex,
    _annotation_text,
)
from repro.analysis.registry import register

#: FrequencyDistribution / dict methods that change table counts.
_MUTATING_METHODS = frozenset(
    {"add", "merge", "update", "setdefault", "subtract", "increment",
     "pop", "popitem", "clear"}
)


def _table_access(node: ast.AST) -> Optional[Tuple[str, str]]:
    """``(receiver, table)`` when ``node`` is ``<name>.<table>[...]*``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.attr in GRAMMAR_TABLE_ATTRIBUTES
    ):
        return node.value.id, node.attr
    return None


@register
class EpochDisciplineRule(ProjectRule):
    """FPM013: table mutations must unconditionally bump the epoch."""

    rule_id = "FPM013"
    name = "epoch-discipline"
    summary = (
        "any function mutating a grammar count table (structures/"
        "terminals/capitalization/leet/reverse/allcaps) must bump the "
        "owner's _epoch unconditionally, or FrozenGrammar snapshots go "
        "stale"
    )

    def check(self, tree: ast.Module) -> None:
        index = self.index
        if not isinstance(index, ProjectIndex):
            return
        module = index.module_for_path(self.context.path)
        if module is None or not index.epoch_guarded_classes:
            return
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                qualified = f"{module.module}.{node.name}"
                guarded_self = qualified in index.epoch_guarded_classes
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._check_function(
                            index, module, child, guarded_self
                        )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(index, module, node, False)

    def _check_function(
        self,
        index: ProjectIndex,
        module: ModuleInfo,
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
        guarded_self: bool,
    ) -> None:
        receivers: List[str] = ["self"] if guarded_self else []
        if node.name == "__init__" and guarded_self:
            return  # construction populates the tables at epoch 0
        args = node.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            annotation = _annotation_text(arg.annotation)
            if annotation is None:
                continue
            resolved = index.resolve_symbol(module, annotation)
            if resolved is None and annotation in (
                name.rsplit(".", 1)[1]
                for name in index.epoch_guarded_classes
            ):
                # Same-module annotation of a guarded class.
                resolved = f"{module.module}.{annotation}"
            if resolved in index.epoch_guarded_classes:
                receivers.append(arg.arg)
        if not receivers:
            return

        mutated: Dict[str, List[Tuple[str, int]]] = {}
        for child in ast.walk(node):
            access: Optional[Tuple[str, str]] = None
            if isinstance(child, ast.Call) and isinstance(
                child.func, ast.Attribute
            ):
                if child.func.attr in _MUTATING_METHODS:
                    access = _table_access(child.func.value)
            elif isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    child.targets
                    if isinstance(child, ast.Assign)
                    else [child.target]
                )
                for target in targets:
                    access = access or _table_access(target)
            elif isinstance(child, ast.Delete):
                for target in child.targets:
                    access = access or _table_access(target)
            if access is None:
                continue
            receiver, table = access
            if receiver in receivers:
                mutated.setdefault(receiver, []).append(
                    (table, child.lineno)
                )

        if not mutated:
            return
        bumped = set()
        for statement in node.body:
            target: Optional[ast.expr] = None
            if isinstance(statement, ast.AugAssign):
                target = statement.target
            elif isinstance(statement, ast.Assign) and len(statement.targets) == 1:
                target = statement.targets[0]
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "_epoch"
                and isinstance(target.value, ast.Name)
            ):
                bumped.add(target.value.id)

        for receiver, accesses in sorted(mutated.items()):
            if receiver in bumped:
                continue
            tables = ", ".join(sorted({table for table, _ in accesses}))
            self.report_at(
                node.lineno,
                node.col_offset + 1,
                f"{node.name!r} mutates count table(s) {tables} of "
                f"{receiver!r} without an unconditional "
                f"{receiver}._epoch bump; FrozenGrammar snapshots "
                f"will not invalidate",
            )
