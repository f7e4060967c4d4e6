"""Micro-batching: coalesce concurrent ``/check`` requests.

Scoring one password costs microseconds; *dispatching* one password —
an HTTP round trip, the model lock and two thread hops — costs far
more.  The batcher recovers the batch
economics the scoring engine already has (``probability_many``):
requests that arrive while a batch is in flight are collected into
the next batch and scored with a single backend call, then fanned
back out to their waiting handlers.

The flush discipline is *self-clocking*: the first arrival dispatches
at once, and up to ``max_batch`` pending requests are cut into one
batch and dispatched as an independent task, so a slow batch never
blocks the next one.  Batches form from backpressure with zero added
latency; under 64 concurrent clients the mean batch settles near the
concurrency level.  There is no coalescing window: a request never
waits for company, so under light load, when the backend keeps up
with arrivals, most batches hold one request.  With ``max_batch=1`` the batcher degrades to strict one-request-per-call
dispatch — the unbatched comparator used by
``benchmarks/test_timing_serving.py``.

Telemetry reconciles by construction: every submitted request is
counted into ``serve.batch.requests`` and every resolved future into
``serve.batch.responses`` (equality is asserted under random
interleavings by ``tests/test_serve_batching.py``).
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, List, Optional, Set, Tuple

from repro import obs
from repro.obs.core import Telemetry

#: A batch scoring backend: passwords in, ``(epoch, scores)`` out.
ScoreBatch = Callable[[List[str]], Awaitable[Tuple[int, List[float]]]]


class MicroBatcher:
    """Coalesces concurrent score requests into backend batches."""

    def __init__(
        self,
        score_batch: ScoreBatch,
        max_batch: int = 256,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max batch must be >= 1, got {max_batch}")
        self._score_batch = score_batch
        self._max_batch = max_batch
        self._telemetry = telemetry if telemetry is not None else obs.get()
        self._pending: List[Tuple[str, "asyncio.Future[Tuple[int, float]]"]] = []
        self._wakeup: Optional[asyncio.Event] = None
        self._flusher: Optional["asyncio.Task[None]"] = None
        self._dispatches: Set["asyncio.Task[None]"] = set()

    # --- introspection -------------------------------------------------

    @property
    def max_batch(self) -> int:
        return self._max_batch

    @property
    def pending(self) -> int:
        return len(self._pending)

    # --- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        if self._flusher is not None:
            raise RuntimeError("batcher already started")
        self._wakeup = asyncio.Event()
        self._flusher = asyncio.create_task(self._run())

    async def stop(self) -> None:
        """Cancel the flush loop and fail anything still queued."""
        flusher = self._flusher
        if flusher is not None:
            flusher.cancel()
            try:
                await flusher
            except asyncio.CancelledError:
                pass
            self._flusher = None
        for _password, future in self._pending:
            if not future.done():
                future.set_exception(
                    RuntimeError("batcher stopped with requests queued")
                )
        self._pending.clear()
        for task in list(self._dispatches):
            try:
                await task
            except asyncio.CancelledError:
                pass

    # --- request path --------------------------------------------------

    async def submit(self, password: str) -> Tuple[int, float]:
        """Score one password; resolves with ``(epoch, probability)``."""
        telemetry = self._telemetry
        telemetry.incr("serve.batch.requests")
        if self._max_batch == 1:
            # Strict one-request-per-call mode: no coalescing at all.
            epoch, scores = await self._score_batch([password])
            telemetry.incr("serve.batch.dispatches")
            telemetry.incr("serve.batch.responses")
            telemetry.observe("serve.batch.size", 1.0)
            return epoch, scores[0]
        if self._flusher is None or self._wakeup is None:
            raise RuntimeError("batcher is not running")
        future: "asyncio.Future[Tuple[int, float]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending.append((password, future))
        self._wakeup.set()
        return await future

    # --- flush loop ----------------------------------------------------

    async def _run(self) -> None:
        wakeup = self._wakeup
        assert wakeup is not None
        telemetry = self._telemetry
        while True:
            await wakeup.wait()
            items = self._pending[:self._max_batch]
            del self._pending[:len(items)]
            telemetry.observe(
                "serve.queue.depth",
                float(len(items) + len(self._pending)),
            )
            if not self._pending:
                wakeup.clear()
            if items:
                task = asyncio.create_task(self._dispatch(items))
                self._dispatches.add(task)
                task.add_done_callback(self._dispatches.discard)

    async def _dispatch(
        self,
        items: List[Tuple[str, "asyncio.Future[Tuple[int, float]]"]],
    ) -> None:
        telemetry = self._telemetry
        telemetry.incr("serve.batch.dispatches")
        telemetry.observe("serve.batch.size", float(len(items)))
        try:
            epoch, scores = await self._score_batch(
                [password for password, _future in items]
            )
        except asyncio.CancelledError:
            for _password, future in items:
                if not future.done():
                    future.cancel()
            raise
        except Exception as error:
            telemetry.incr("serve.batch.errors")
            for _password, future in items:
                if not future.done():
                    future.set_exception(
                        RuntimeError(f"batch scoring failed: {error!r}")
                    )
            return
        resolved = 0
        for (_password, future), score in zip(items, scores):
            if not future.done():
                future.set_result((epoch, score))
            resolved += 1
        telemetry.incr("serve.batch.responses", resolved)
