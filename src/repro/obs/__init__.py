"""Observability for the scoring pipeline (DESIGN.md §9).

The package keeps one process-wide backend that every probe in the
hot path reports to:

* :class:`~repro.obs.core.NoopTelemetry` — the default; probes cost
  one attribute check (guarded) or one empty method call (unguarded);
* :class:`~repro.obs.core.Telemetry` — the collecting backend, with
  counters, fixed log-spaced histograms and span timers.

Selection is by config, not code edits::

    from repro import obs

    with obs.session() as tel:            # scoped collection
        meter.probability_many(stream)
    report = tel.snapshot()

    obs.enable()                          # process-wide, until disable()
    obs.disable()

Setting the environment variable ``REPRO_TELEMETRY`` to ``1``/``true``
/``yes``/``on`` enables a collecting backend at import time, so any
entry point (CLI, pytest, scripts) can be profiled without a code
change.  ``repro profile`` and the experiments runner install scoped
sessions themselves.
"""

from __future__ import annotations

import os
import re
from contextlib import contextmanager
from typing import FrozenSet, Iterator, Optional

from repro.obs.core import (
    Clock,
    Histogram,
    NoopTelemetry,
    Span,
    Telemetry,
    log_spaced_bounds,
    now,
)
from repro.obs.report import build_report, render_report

__all__ = [
    "Clock",
    "Histogram",
    "NoopTelemetry",
    "Span",
    "Telemetry",
    "build_report",
    "disable",
    "enable",
    "get",
    "log_spaced_bounds",
    "now",
    "register_namespace",
    "registered_namespaces",
    "render_report",
    "session",
]

_NAMESPACE_RE = re.compile(r"^[a-z0-9_]+$")
_NAMESPACES: "set[str]" = set()


def register_namespace(prefix: str) -> str:
    """Declare a probe-name namespace (the head segment before ``.``).

    Every probe name emitted through the telemetry API is
    ``<namespace>.<segment>[.<segment>...]``; registering the
    namespace here is what makes it official.  The static gate
    (lint rule FPM014) harvests these literal calls project-wide and
    rejects probe names under unregistered heads, so a typo'd
    namespace cannot silently fork a metric series.  Returns the
    prefix so call sites can bind it if they want a constant.
    """
    if not _NAMESPACE_RE.match(prefix):
        raise ValueError(
            f"namespace {prefix!r} must be lowercase [a-z0-9_]+"
        )
    _NAMESPACES.add(prefix)
    return prefix


def registered_namespaces() -> FrozenSet[str]:
    """The namespaces declared so far (for reports and tests)."""
    return frozenset(_NAMESPACES)


# The probe namespaces in use across the package, declared centrally
# so the catalogue is readable in one place.  Keep the list sorted;
# add a line here (or a register_namespace call next to your probes)
# before emitting under a new head segment.
register_namespace("attack")
register_namespace("enum")
register_namespace("experiment")
register_namespace("lint")
register_namespace("meter")
register_namespace("parser")
register_namespace("profile")
register_namespace("serve")
register_namespace("stream")
register_namespace("train")
register_namespace("trie")

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def _backend_from_environment() -> Telemetry:
    value = os.environ.get("REPRO_TELEMETRY", "").strip().lower()
    return Telemetry() if value in _TRUTHY else NoopTelemetry()


_ACTIVE: Telemetry = _backend_from_environment()


def get() -> Telemetry:
    """The active backend (fetch once per function, not per item)."""
    return _ACTIVE


def enable(telemetry: Optional[Telemetry] = None) -> Telemetry:
    """Install a collecting backend process-wide and return it."""
    global _ACTIVE
    _ACTIVE = telemetry if telemetry is not None else Telemetry()
    return _ACTIVE


def disable() -> None:
    """Restore the zero-overhead no-op backend."""
    global _ACTIVE
    _ACTIVE = NoopTelemetry()


@contextmanager
def session(clock: Clock = now) -> Iterator[Telemetry]:
    """A scoped collecting backend; the previous one is restored.

    Sessions nest: an inner session shadows (and does not leak into)
    an outer one, which keeps ``repro profile`` runs and experiment
    telemetry snapshots independent of process-wide state.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = Telemetry(clock=clock)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous
