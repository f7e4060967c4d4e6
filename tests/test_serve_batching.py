"""Hypothesis differential for the micro-batcher.

The batcher must be *score-invisible*: for any interleaving of
concurrent submissions and any ``max_batch``, the results are exactly
what one-call-per-password would produce, and the telemetry
reconciles — every request in becomes exactly one response out, with
no batch ever exceeding ``max_batch``.
"""

from __future__ import annotations

import asyncio
import zlib
from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.core import Telemetry
from repro.core.meter import score_many
from repro.serve import MicroBatcher

from tests.serve_utils import SERVE_PASSWORDS, train_serve_meter

#: A deterministic stand-in scorer (stable across processes).
def fake_score(password: str) -> float:
    return (zlib.crc32(password.encode("utf-8")) % 10_000) / 10_000.0


def drive_batcher(
    submissions: List[Tuple[str, float]],
    max_batch: int,
) -> Tuple[List[Tuple[int, float]], Telemetry, List[int]]:
    """Run one interleaving; returns (results, telemetry, batch sizes)."""
    telemetry = Telemetry()
    batch_sizes: List[int] = []

    async def backend(batch: List[str]) -> Tuple[int, List[float]]:
        batch_sizes.append(len(batch))
        await asyncio.sleep(0)  # yield, as a real backend would
        return 7, [fake_score(pw) for pw in batch]

    async def submit_after(batcher, password, delay):
        if delay:
            await asyncio.sleep(delay)
        return await batcher.submit(password)

    async def main():
        batcher = MicroBatcher(
            backend, max_batch=max_batch, telemetry=telemetry,
        )
        await batcher.start()
        try:
            return await asyncio.gather(*[
                submit_after(batcher, password, delay)
                for password, delay in submissions
            ])
        finally:
            await batcher.stop()

    return asyncio.run(main()), telemetry, batch_sizes


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    submissions=st.lists(
        st.tuples(
            st.one_of(
                st.sampled_from(SERVE_PASSWORDS),
                st.text(max_size=8),
            ),
            st.sampled_from([0.0, 0.0, 0.001, 0.003]),
        ),
        min_size=1, max_size=40,
    ),
    max_batch=st.sampled_from([1, 2, 3, 7, 256]),
)
def test_micro_batched_equals_unbatched(submissions, max_batch):
    results, telemetry, batch_sizes = drive_batcher(
        submissions, max_batch
    )
    # Differential: coalescing never changes any score, and every
    # result carries the backend's epoch.
    assert results == [
        (7, fake_score(password)) for password, _delay in submissions
    ]
    # Counters reconcile: requests in == responses out.
    requests = telemetry.counter("serve.batch.requests")
    responses = telemetry.counter("serve.batch.responses")
    assert requests == responses == len(submissions)
    assert telemetry.counter("serve.batch.dispatches") == len(batch_sizes)
    # No dispatch ever exceeds the cap, and the batch sizes account
    # for every request exactly once.
    assert all(1 <= size <= max_batch for size in batch_sizes)
    assert sum(batch_sizes) == len(submissions)
    if max_batch == 1:
        assert all(size == 1 for size in batch_sizes)


def test_batched_scores_match_real_meter_exactly():
    """Same differential against the real frozen-kernel scorer."""
    meter = train_serve_meter()
    parser, frozen = meter.parser, meter.frozen_grammar()
    expected = {pw: meter.probability(pw) for pw in SERVE_PASSWORDS}

    async def backend(batch):
        return frozen.epoch, score_many(parser, frozen, batch)

    async def main():
        batcher = MicroBatcher(backend, max_batch=8)
        await batcher.start()
        try:
            passwords = SERVE_PASSWORDS * 3
            results = await asyncio.gather(*[
                batcher.submit(pw) for pw in passwords
            ])
            for password, (epoch, probability) in zip(
                passwords, results
            ):
                assert probability == expected[password]
                assert epoch == frozen.epoch
        finally:
            await batcher.stop()

    asyncio.run(main())


def test_failed_batch_fails_only_its_requests():
    telemetry = Telemetry()

    async def backend(batch):
        if any(pw == "boom" for pw in batch):
            raise RuntimeError("backend exploded")
        return 1, [fake_score(pw) for pw in batch]

    async def main():
        # One request at a time, so each is its own batch: the
        # failure isolates deterministically.
        batcher = MicroBatcher(backend, max_batch=2, telemetry=telemetry)
        await batcher.start()
        try:
            with pytest.raises(RuntimeError, match="batch scoring"):
                await batcher.submit("boom")
            # The batcher survives a failed dispatch.
            epoch, score = await batcher.submit("fine")
            assert (epoch, score) == (1, fake_score("fine"))
        finally:
            await batcher.stop()

    asyncio.run(main())
    assert telemetry.counter("serve.batch.errors") >= 1


def test_stop_fails_queued_requests_cleanly():
    async def backend(batch):  # pragma: no cover - never dispatched
        return 1, [0.0] * len(batch)

    async def main():
        batcher = MicroBatcher(backend, max_batch=256)
        await batcher.start()
        waiter = asyncio.ensure_future(batcher.submit("queued"))
        # One loop step runs the submit, which queues the request and
        # wakes the flush loop; the stop comes before the loop's turn.
        await asyncio.sleep(0)
        assert batcher.pending == 1
        await batcher.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            await waiter

    asyncio.run(main())


def test_batcher_rejects_bad_parameters():
    async def backend(batch):  # pragma: no cover - never started
        return 1, [0.0] * len(batch)

    with pytest.raises(ValueError, match="batch"):
        MicroBatcher(backend, max_batch=0)
    with pytest.raises(RuntimeError, match="not running"):
        asyncio.run(MicroBatcher(backend).submit("x"))
