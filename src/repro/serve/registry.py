"""The multi-model registry: several trained meters, one server.

One ``repro serve`` process can host any number of trained models —
production next to a canary, or per-population grammars (DESIGN.md
§14).  The registry is the naming layer: an ordered mapping from model
name to meter, where the first model registered is the *default* — the
one requests without an explicit ``model=`` parameter are routed to,
and the one whose epoch the top-level ``/healthz`` and ``/metrics``
fields keep reporting for backward compatibility.

The registry deliberately holds meters, not runtime state: locks and
micro-batchers are per-model *server* concerns
(:class:`repro.serve.app.ReproServer` builds one runtime per
registered model).  Routing is by name only, so an online update
(``/accept?model=...``) changes one model without touching its
neighbours.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterator, Optional, Tuple

#: Legal model names: path-safe, query-safe, no whitespace.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class SnapshotRegistry:
    """Named meters behind one server; insertion order is routing order.

    The first model added is the default route.  Names are validated
    (``[A-Za-z0-9][A-Za-z0-9._-]*``) so they survive query strings and
    log lines unquoted, and duplicates are rejected instead of
    silently replaced — changing a live model is an online update
    (``/accept``), not a registration.
    """

    def __init__(self) -> None:
        self._meters: Dict[str, Any] = {}

    def add(self, name: str, meter: Any) -> "SnapshotRegistry":
        """Register ``meter`` under ``name``; returns self for chaining."""
        if not _NAME_RE.match(name):
            raise ValueError(
                f"invalid model name {name!r}: must match "
                "[A-Za-z0-9][A-Za-z0-9._-]*"
            )
        if name in self._meters:
            raise ValueError(f"duplicate model name {name!r}")
        self._meters[name] = meter
        return self

    @classmethod
    def single(cls, meter: Any, name: str = "default") -> "SnapshotRegistry":
        """A one-model registry (how a bare meter is served)."""
        return cls().add(name, meter)

    @property
    def default_name(self) -> str:
        """Name of the default (first-registered) model."""
        if not self._meters:
            raise ValueError("registry is empty")
        return next(iter(self._meters))

    def names(self) -> Tuple[str, ...]:
        """All model names, in registration (routing) order."""
        return tuple(self._meters)

    def resolve(self, name: Optional[str]) -> Tuple[str, Any]:
        """``(name, meter)`` for ``name``, or the default for ``None``."""
        if name is None:
            name = self.default_name
        meter = self._meters.get(name)
        if meter is None:
            known = ", ".join(self.names())
            raise KeyError(
                f"unknown model {name!r}; serving: {known}"
            )
        return name, meter

    def items(self) -> Iterator[Tuple[str, Any]]:
        return iter(self._meters.items())

    def __len__(self) -> int:
        return len(self._meters)

    def __contains__(self, name: object) -> bool:
        return name in self._meters

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SnapshotRegistry({', '.join(self._meters)})"
