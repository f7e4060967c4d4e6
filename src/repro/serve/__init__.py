"""Online serving: HTTP endpoint over warm snapshot workers.

The package composes four pieces (DESIGN.md §14, §16):

* :mod:`repro.serve.registry` — the multi-model registry: several
  named trained meters behind one server, routed by ``model=``;
* :mod:`repro.serve.workers`  — warm worker processes attached by name
  to the shared-memory segment holding a model's scoring snapshot
  (:class:`~repro.core.shm.MaterializedScoringState`), supervised and
  hot-swappable;
* :mod:`repro.serve.batcher`  — the micro-batcher coalescing
  concurrent ``/check`` requests into one batch scoring call;
* :mod:`repro.serve.app`      — the asyncio HTTP/1.1 server
  (``repro serve``) wiring them behind ``/check``, ``/suggest``,
  ``/policy``, ``/accept``, ``/healthz`` and ``/metrics``.
"""

from repro.serve.app import ReproServer, ServeConfig
from repro.serve.batcher import MicroBatcher
from repro.serve.registry import SnapshotRegistry
from repro.serve.workers import WorkerCrash, WorkerPool

__all__ = [
    "MicroBatcher",
    "ReproServer",
    "ServeConfig",
    "SnapshotRegistry",
    "WorkerCrash",
    "WorkerPool",
]
