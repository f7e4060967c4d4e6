"""FPM012: fork-safety of the worker-pool surface (DESIGN.md §13).

A worker pool (``repro lint --jobs``) broadcasts heavy state into its
worker processes exactly once, through a pool ``initializer`` that
writes module globals.  Everything else that runs in a worker — the
task entrypoints and their transitive callees — may *read* those
globals but must never write them: a write would silently diverge
per-worker state from the parent and from sibling workers, so parallel
results would stop matching serial ones in a way no test that happens
to fork after the write can see.

The rule leans on the pass-1 :class:`ProjectIndex`: worker entrypoints
come from real ``pool.imap``/``apply_async``/``Process(target=...)``
call sites anywhere in the project, the blessed writers are functions
actually installed via ``initializer=`` (plus the ``_worker_init*``
naming convention), and reachability is the transitive closure
over the approximate call graph.  A ``global`` statement is the write
signal — rebinding a broadcast-once global is exactly the bug class.

It also rejects unpicklable task targets (lambdas and nested
functions) at the call site, which would otherwise only fail at
runtime on spawn-based platforms.
"""

from __future__ import annotations

import ast

from repro.analysis.core import ProjectRule
from repro.analysis.project import ProjectIndex
from repro.analysis.registry import register


@register
class ForkSafetyRule(ProjectRule):
    """FPM012: no global writes past fork, no unpicklable entrypoints."""

    rule_id = "FPM012"
    name = "fork-safety"
    summary = (
        "worker entrypoints and their transitive callees may read but "
        "never write broadcast-once module globals (only _worker_init* "
        "pool initializers may), and pool task targets must be "
        "picklable module-level functions"
    )

    def check(self, tree: ast.Module) -> None:
        index = self.index
        if not isinstance(index, ProjectIndex):
            return
        module = index.module_for_path(self.context.path)
        if module is None:
            return

        for info in module.functions:
            if not info.global_names:
                continue
            qualified = f"{module.module}.{info.qualname}"
            if qualified not in index.worker_reachable:
                continue
            if qualified in index.blessed_initializers:
                continue
            names = ", ".join(sorted(info.global_names))
            self.report_at(
                info.global_lineno,
                1,
                f"worker-reachable function {info.qualname!r} writes "
                f"module global(s) {names} after fork; only a blessed "
                f"_worker_init* initializer may write broadcast-once "
                f"state",
            )

        nested_names = {
            info.name for info in module.functions if info.is_nested
        }
        for use in module.worker_uses:
            if use.role != "task":
                continue
            if use.target is None:
                self.report_at(
                    use.lineno,
                    use.column,
                    "lambda handed to a process pool is unpicklable; "
                    "use a module-level function",
                )
                continue
            resolved = index.resolve_symbol(module, use.target)
            if resolved is None:
                if use.target in nested_names:
                    self.report_at(
                        use.lineno,
                        use.column,
                        f"nested function {use.target!r} handed to a "
                        f"process pool captures its closure and is "
                        f"unpicklable; hoist it to module level",
                    )
                continue
            info = index.find_function(resolved)
            if info is not None and info.is_nested:
                self.report_at(
                    use.lineno,
                    use.column,
                    f"nested function {use.target!r} handed to a "
                    f"process pool captures its closure and is "
                    f"unpicklable; hoist it to module level",
                )
