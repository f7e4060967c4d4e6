"""Online serving: an HTTP endpoint scoring in the server process.

The package composes three pieces (DESIGN.md §14):

* :mod:`repro.serve.registry` — the multi-model registry: several
  named trained meters behind one server, routed by ``model=``;
* :mod:`repro.serve.batcher`  — the micro-batcher coalescing
  concurrent ``/check`` requests into one batch scoring call;
* :mod:`repro.serve.app`      — the asyncio HTTP/1.1 server
  (``repro serve``) wiring them behind ``/check``, ``/suggest``,
  ``/policy``, ``/accept``, ``/healthz`` and ``/metrics``.
"""

from repro.serve.app import ReproServer, ServeConfig
from repro.serve.batcher import MicroBatcher
from repro.serve.registry import SnapshotRegistry

__all__ = [
    "MicroBatcher",
    "ReproServer",
    "ServeConfig",
    "SnapshotRegistry",
]
