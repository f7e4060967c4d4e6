"""FPM015: static capability conformance for ``@register_meter``.

The registry already verifies capability declarations at import time
(PR 4), but import-time checks only fire for code paths that import
the module — a meter behind an optional extra, or a capability whose
backing method was renamed in a refactor, slips through until the
first runtime use.  This rule re-runs the same contract statically:
each capability declared in a ``@register_meter`` decoration must be
backed by a method that actually exists somewhere on the static MRO
(resolved through the pass-1 index, so inherited implementations
count).

The required-method table is imported from
:mod:`repro.meters.registry` itself — one source of truth, so the
static gate can never drift from the runtime gate.  When a base class
cannot be resolved statically the rule stays silent about missing
methods: they may live on the unresolved base.
"""

from __future__ import annotations

import ast

from repro.analysis.core import ProjectRule
from repro.analysis.project import ProjectIndex
from repro.analysis.registry import register
from repro.meters.registry import _CAPABILITY_METHODS, Capability


@register
class CapabilityConformanceRule(ProjectRule):
    """FPM015: declared capabilities must have backing methods."""

    rule_id = "FPM015"
    name = "capability-conformance"
    summary = (
        "every capability declared in @register_meter must be backed "
        "by a method defined on the class or its static MRO"
    )

    def check(self, tree: ast.Module) -> None:
        index = self.index
        if not isinstance(index, ProjectIndex):
            return
        module = index.module_for_path(self.context.path)
        if module is None:
            return
        for cls in module.classes:
            registration = cls.meter_registration
            if registration is None:
                continue
            qualified = f"{module.module}.{cls.name}"
            for capability_name in registration.capabilities:
                capability = Capability.__members__.get(capability_name)
                if capability is None:
                    self.report_at(
                        registration.lineno,
                        1,
                        f"{cls.name} declares unknown capability "
                        f"{capability_name!r}",
                    )
                    continue
                for method in _CAPABILITY_METHODS.get(capability, ()):
                    info, complete = index.find_method(qualified, method)
                    if info is None and complete:
                        self.report_at(
                            registration.lineno,
                            1,
                            f"{cls.name} declares "
                            f"Capability.{capability_name} but "
                            f"defines no {method}() anywhere on "
                            f"its static MRO",
                        )
