"""Warm scoring workers: segment-seeded, supervised, hot-swappable.

Each worker is a long-lived ``multiprocessing.Process`` connected to
the server by one duplex pipe.  Workers never receive model state by
value: the pool publishes the meter's scoring snapshot
(:class:`~repro.core.shm.MaterializedScoringState`, from
``FuzzyPSM.scoring_state``) into one shared-memory segment (DESIGN.md
§16) and hands each worker the segment *name* — attach is a
millisecond ``mmap``, identical under the fork and spawn start methods
(:func:`repro.core.shm.mp_context`), and request traffic carries only
password lists and score lists.  Workers score with
:func:`repro.core.meter.score_many`, the same loop as
``probability_many``.  A hot reload publishes the new epoch's segment,
ships its name down the pipe exactly once per worker, then unlinks the
retired segment; because the pipe is FIFO and each worker handles one
message at a time, every batch already queued ahead of the swap
finishes on the old mapping (which stays valid until the worker
reattaches).

Crash handling is the pool's job, not the caller's: a batch sent to a
worker that died (killed, OOM, segfault) surfaces as a pipe error, the
pool marks the worker dead, respawns it attached to the *current*
segment, and redispatches the batch to a surviving worker — falling
back to scoring inline in the server process when every worker is down
— so no request is ever dropped on a worker failure.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.core.frozen import FrozenGrammar
from repro.core.meter import score_many
from repro.core.parser import FuzzyParser
from repro.core.shm import (
    MaterializedScoringState,
    SharedScoringSegment,
    _worker_attach_state,
    mp_context,
)
from repro.obs.core import Telemetry, now as _now

#: Seconds a dispatcher waits on a worker reply before declaring the
#: worker wedged.  Generous — batches score in milliseconds; this only
#: fires for a live-but-stuck process, which is treated like a crash.
WORKER_REPLY_TIMEOUT = 30.0


class WorkerCrash(RuntimeError):
    """A worker died (or wedged) under a request; the pool retries."""


def _serve_worker_main(connection: Any, segment_name: str) -> None:
    """Worker process entrypoint: score batches until told to stop.

    Scoring state comes from attaching ``segment_name`` (zero-copy,
    through the per-process attach cache in :mod:`repro.core.shm` —
    the only module global touched, and one blessed for worker use by
    fork-safety rule FPM012).  Messages are ``(kind, ...)`` tuples:

    * ``("score", [pw, ...])`` → ``("scored", epoch, [p, ...], secs)``;
    * ``("swap", name)``       → ``("swapped", epoch)`` — attaches the
      new epoch's segment and rebuilds the parser; in-flight batches
      queued earlier already drained on the old mapping;
    * ``("ping",)``            → ``("pong", epoch)``;
    * ``("stop",)``            → ``("stopped",)`` and exit.
    """
    state = _worker_attach_state(segment_name)
    frozen, parser = state.require_frozen(), state.build_parser()
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "score":
            start = _now()
            scores = score_many(parser, frozen, message[1])
            connection.send(
                ("scored", state.epoch, scores, _now() - start)
            )
        elif kind == "swap":
            state = _worker_attach_state(message[1])
            frozen, parser = state.require_frozen(), state.build_parser()
            connection.send(("swapped", state.epoch))
        elif kind == "ping":
            connection.send(("pong", state.epoch))
        elif kind == "stop":
            connection.send(("stopped",))
            break
    connection.close()


class _WorkerHandle:
    """One worker process plus its pipe and dispatch lock."""

    __slots__ = ("process", "connection", "lock", "dead")

    def __init__(self, segment_name: str) -> None:
        context = mp_context()
        parent, child = context.Pipe()
        self.process = context.Process(
            target=_serve_worker_main, args=(child, segment_name),
            daemon=True,
        )
        self.process.start()
        child.close()
        self.connection = parent
        self.lock = threading.Lock()
        self.dead = False

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def alive(self) -> bool:
        return not self.dead and self.process.is_alive()

    def request(self, message: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """Blocking send/recv round trip (executor threads only).

        The per-handle lock serialises dispatchers onto the pipe; any
        pipe failure or reply timeout marks the handle dead and raises
        :class:`WorkerCrash` so the pool can respawn and retry.
        """
        with self.lock:
            if self.dead:
                raise WorkerCrash(
                    f"worker pid={self.pid} already marked dead"
                )
            try:
                self.connection.send(message)
                if not self.connection.poll(WORKER_REPLY_TIMEOUT):
                    self.dead = True
                    raise WorkerCrash(
                        f"worker pid={self.pid} timed out after "
                        f"{WORKER_REPLY_TIMEOUT}s"
                    )
                return self.connection.recv()
            except (EOFError, BrokenPipeError, OSError) as error:
                self.dead = True
                raise WorkerCrash(
                    f"worker pid={self.pid} died mid-request: {error!r}"
                ) from error

    def stop(self, join_timeout: float = 2.0) -> None:
        """Best-effort graceful stop, then terminate."""
        if self.alive():
            try:
                with self.lock:
                    self.connection.send(("stop",))
            except (BrokenPipeError, OSError):
                self.dead = True
        self.process.join(timeout=join_timeout)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=join_timeout)
        self.dead = True
        self.connection.close()


class WorkerPool:
    """A fixed-size pool of warm workers with supervised respawn.

    All methods are blocking (the async server calls them through an
    executor).  The pool owns one *current* shared segment (published
    from the scoring state it was built or last swapped with): spawns
    and respawns attach to it by name, :meth:`swap` publishes the new
    epoch's segment, broadcasts its name to the live workers and
    unlinks the retired one.  :meth:`stop` unlinks the current
    segment, so a stopped pool leaves nothing in ``/dev/shm``.
    """

    def __init__(
        self,
        state: MaterializedScoringState,
        size: int,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if size < 1:
            raise ValueError(f"worker pool size must be >= 1, got {size}")
        self._state = state
        self._segment = SharedScoringSegment.create(state)
        self._telemetry = telemetry if telemetry is not None else obs.get()
        self._handles: List[_WorkerHandle] = [
            _WorkerHandle(self._segment.name) for _ in range(size)
        ]
        self._round_robin = 0
        self._respawn_lock = threading.Lock()
        self._fallback: Optional[
            Tuple[int, FuzzyParser, FrozenGrammar]
        ] = None

    # --- introspection -------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._handles)

    @property
    def epoch(self) -> int:
        """Epoch of the snapshot workers are (being) seeded with."""
        return self._state.epoch

    @property
    def segment_name(self) -> str:
        """Name of the current shared segment (for tests/operators)."""
        return self._segment.name

    def statuses(self) -> List[Dict[str, Any]]:
        """Liveness of every worker, for ``/healthz``."""
        return [
            {"pid": handle.pid, "alive": handle.alive()}
            for handle in self._handles
        ]

    def healthy(self) -> bool:
        return all(handle.alive() for handle in self._handles)

    # --- scoring -------------------------------------------------------

    def score(
        self, passwords: List[str]
    ) -> Tuple[int, List[float], float]:
        """Score one batch on some worker; never drops the batch.

        Returns ``(epoch, scores, worker_seconds)``.  Crashed workers
        are respawned and the batch redispatched; with every worker
        down the batch is scored inline on the pool's current snapshot
        (``serve.worker.fallback.inline``).
        """
        telemetry = self._telemetry
        for _ in range(len(self._handles) + 1):
            handle = self._next_alive()
            if handle is None:
                break
            try:
                reply = handle.request(("score", passwords))
            except WorkerCrash:
                telemetry.incr("serve.worker.crashes")
                self.respawn_dead()
                continue
            return reply[1], reply[2], reply[3]
        telemetry.incr("serve.worker.fallback.inline")
        self.respawn_dead()
        epoch, parser, frozen = self._fallback_scorer()
        start = _now()
        scores = score_many(parser, frozen, passwords)
        return epoch, scores, _now() - start

    def _next_alive(self) -> Optional[_WorkerHandle]:
        """Round-robin over live workers (None when all are dead)."""
        handles = self._handles
        for _ in range(len(handles)):
            self._round_robin = (self._round_robin + 1) % len(handles)
            handle = handles[self._round_robin]
            if handle.alive():
                return handle
        return None

    def _fallback_scorer(self) -> Tuple[int, FuzzyParser, FrozenGrammar]:
        """``(epoch, parser, frozen)`` over the current snapshot, for
        scoring in-process (last resort); the parser and its cache are
        kept until the epoch moves."""
        fallback = self._fallback
        state = self._state
        if fallback is None or fallback[0] != state.epoch:
            fallback = (
                state.epoch, state.build_parser(), state.require_frozen()
            )
            self._fallback = fallback
        return fallback

    # --- lifecycle -----------------------------------------------------

    def respawn_dead(self) -> int:
        """Replace every dead worker with one seeded from the current
        snapshot; returns how many were replaced."""
        with self._respawn_lock:
            replaced = 0
            for index, handle in enumerate(self._handles):
                if handle.alive():
                    continue
                handle.stop()
                self._handles[index] = _WorkerHandle(self._segment.name)
                replaced += 1
            if replaced:
                self._telemetry.incr("serve.worker.respawns", replaced)
            return replaced

    def swap(self, state: MaterializedScoringState) -> None:
        """Atomically adopt ``state`` and broadcast it to workers.

        The new epoch's segment is published and adopted first, so any
        respawn from here on attaches the new epoch; each live worker
        then receives the segment name once.  Workers that die during
        the broadcast are respawned — already attached to the new
        segment.  The retired segment is unlinked last: mappings in
        workers still draining queued batches stay valid, only the
        name disappears.
        """
        retired = self._segment
        self._segment = SharedScoringSegment.create(state)
        self._state = state
        for handle in list(self._handles):
            try:
                handle.request(("swap", self._segment.name))
            except WorkerCrash:
                self._telemetry.incr("serve.worker.crashes")
                self.respawn_dead()
        retired.unlink()

    def stop(self) -> None:
        for handle in self._handles:
            handle.stop()
        self._segment.unlink()
