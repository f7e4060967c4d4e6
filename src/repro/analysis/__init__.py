"""Domain-invariant static analysis for the fuzzyPSM codebase.

A small AST-based linter that encodes the reproduction's non-style
invariants as machine-checkable rules — log-safe probability math,
seeded randomness, byte-stable serialization, picklable
multiprocessing workers, and annotation coverage of the public API.
Run it as ``repro lint src/repro`` or via ``make lint``.  Every run
is cold and two-pass: the whole-program index first, then the
per-file rules against it.

Public surface:

* :func:`~repro.analysis.runner.check_source` — lint one source text;
* :func:`~repro.analysis.runner.lint_paths` — lint files/directories;
* :func:`~repro.analysis.runner.run` — CLI driver (reporter + exit
  code);
* :class:`~repro.analysis.core.Rule` /
  :class:`~repro.analysis.core.ProjectRule` /
  :func:`~repro.analysis.registry.register` — extension points for
  new rules (project rules additionally receive the pass-1
  :class:`~repro.analysis.project.ProjectIndex`);
* :func:`~repro.analysis.project.build_project_index` — the
  whole-program pass on its own, for tools and tests.
"""

from repro.analysis.core import (
    LintContext,
    ProjectRule,
    Rule,
    Suppression,
    UnknownRuleError,
    Violation,
    find_suppressions,
)
from repro.analysis.project import ProjectIndex, build_project_index
from repro.analysis.registry import all_rules, create_rules, register
from repro.analysis.runner import (
    check_source,
    describe_rules,
    discover_files,
    lint_paths,
    run,
)

__all__ = [
    "LintContext",
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "Suppression",
    "UnknownRuleError",
    "Violation",
    "all_rules",
    "build_project_index",
    "check_source",
    "create_rules",
    "describe_rules",
    "discover_files",
    "find_suppressions",
    "lint_paths",
    "register",
    "run",
]
