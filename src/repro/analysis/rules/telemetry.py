"""FPM014: telemetry probe-name hygiene.

Probe names are the only join key between the hot-path counters and
everything downstream — ``repro profile`` reports, golden counter
tests, dashboards.  A misspelt or free-form name doesn't fail; it
silently starts a new time series nobody reads.  The rule pins every
probe name emitted through the telemetry API to a *dotted string
literal* whose head segment is a namespace registered via
``obs.register_namespace("...")`` (harvested project-wide by the
pass-1 index, so the authority lives next to the probes it governs).

f-strings are allowed when their leading literal already carries the
registered, dotted prefix (``f"experiment.score.{kind}.seconds"``);
fully dynamic names are skipped rather than guessed at — the rule
only judges what it can read statically.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.core import ProjectRule
from repro.analysis.project import ProjectIndex
from repro.analysis.registry import register

#: Telemetry methods whose first argument is a probe name
#: (``incr_many`` is absent: it takes a list of name/amount pairs).
_PROBE_METHODS = frozenset({"incr", "observe", "timer"})
#: Local names the telemetry backend is conventionally bound to.
_RECEIVER_NAMES = frozenset({"telemetry", "tel"})

_DOTTED_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")
_DOTTED_PREFIX_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*\.$")


def _is_telemetry_receiver(node: ast.AST) -> bool:
    """``telemetry.incr`` / ``tel.observe`` / ``obs.get().timer``."""
    if isinstance(node, ast.Name):
        return node.id in _RECEIVER_NAMES
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return (
            node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "obs"
        )
    return False


@register
class TelemetryNameRule(ProjectRule):
    """FPM014: probe names are dotted literals under registered roots."""

    rule_id = "FPM014"
    name = "telemetry-name-hygiene"
    summary = (
        "telemetry probe names must be dotted string literals whose "
        "head segment is registered via obs.register_namespace; "
        "free-form names silently fork the metric series"
    )

    def check(self, tree: ast.Module) -> None:
        index = self.index
        if not isinstance(index, ProjectIndex):
            return
        self._namespaces = index.registered_namespaces
        if not self._namespaces:
            return  # no authority to check against in this project
        self.visit(tree)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and _is_telemetry_receiver(func.value)
        ):
            if func.attr in _PROBE_METHODS and node.args:
                self._check_name(node.args[0])
            elif func.attr == "incr_many" and node.args:
                self._check_many(node.args[0])
        self.generic_visit(node)

    def _check_many(self, node: ast.AST) -> None:
        if not isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            return  # built elsewhere; not statically judgeable
        for element in node.elts:
            if isinstance(element, ast.Tuple) and element.elts:
                self._check_name(element.elts[0])

    def _check_name(self, node: ast.AST) -> None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            self._judge(node, node.value, literal=True)
        elif isinstance(node, ast.JoinedStr):
            head = node.values[0] if node.values else None
            if isinstance(head, ast.Constant) and isinstance(head.value, str):
                self._judge(node, head.value, literal=False)
            else:
                self.report(
                    node,
                    "telemetry probe name is an f-string with no "
                    "literal dotted prefix; start it with "
                    "'<namespace>.<...>.' so the series stays "
                    "greppable",
                )
        # Plain variables are skipped: the value is not visible here.

    def _judge(self, node: ast.AST, text: str, literal: bool) -> None:
        pattern = _DOTTED_RE if literal else _DOTTED_PREFIX_RE
        if not pattern.match(text):
            shape = "a dotted lowercase path" if literal else (
                "a dotted lowercase prefix ending in '.'"
            )
            self.report(
                node,
                f"telemetry probe name {text!r} is not {shape} "
                f"(expected '<namespace>.<segment>[.<segment>...]')",
            )
            return
        head = text.split(".", 1)[0]
        if head not in self._namespaces:
            known = ", ".join(sorted(self._namespaces))
            self.report(
                node,
                f"telemetry namespace {head!r} is not registered "
                f"(known: {known}); add obs.register_namespace"
                f"({head!r}) next to the probes it owns",
            )
