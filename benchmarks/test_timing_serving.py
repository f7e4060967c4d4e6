"""Serving throughput/latency: micro-batched vs one-request-per-call.

Spins the real ``ReproServer`` (scoring in its own executor threads)
on an ephemeral port and drives it with 64 concurrent keep-alive HTTP
clients, twice:

* **batched** — the production configuration (self-clocking window,
  ``max_batch=256``): concurrent ``/check`` requests arriving while a
  batch is in flight coalesce into the next one, so the per-request
  lock, executor hop and ``probability_many`` call are amortised
  across ~the concurrency level;
* **unbatched** — ``max_batch=1``: identical server, but every request
  pays its own lock, executor hop and scoring call.

The client keeps its own per-request cost minimal (precomputed request
bytes, single ``readuntil`` per response, JSON decoded after the clock
stops) — clients and server share one event loop, so client overhead
dilutes the measured ratio.

Asserted (full scale): batched throughput ≥ 2x unbatched at 64
clients, server-side p50/p99 under budget, and — always, smoke
included — both modes return scores byte-identical to direct
``probability_many`` on the same model.  Records ``serve_throughput``
to BENCH_timing.json.
"""

import asyncio
import json
import time

from repro.meters import registry
from repro.meters.registry import TrainContext
from repro.serve import ReproServer, ServeConfig

from bench_lib import SMOKE, emit, record

CLIENTS = 8 if SMOKE else 64
REQUESTS_PER_CLIENT = 5 if SMOKE else 30
#: Full runs per mode; the fastest is kept (single shared CPU makes
#: individual runs noisy, and scheduler hiccups only ever slow a run).
REPEATS = 1 if SMOKE else 3

#: Server-side latency budgets (seconds) for the batched run.  The
#: self-clocking batcher adds no window latency; the budgets absorb
#: scheduling jitter under 64-way concurrency on small CI machines.
P50_BUDGET = 0.050
P99_BUDGET = 0.250

_LENGTH_MARK = b"Content-Length: "


def _render_check(password):
    body = json.dumps({"password": password}).encode("utf-8")
    return (
        "POST /check HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body


async def _client_loop(port, requests, raw_results):
    """Send each prerendered request, collect raw response bodies."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for password, rendered in requests:
            writer.write(rendered)
            head = await reader.readuntil(b"\r\n\r\n")
            assert b" 200 " in head[:16], head
            start = head.find(_LENGTH_MARK) + len(_LENGTH_MARK)
            length = int(head[start:head.index(b"\r", start)])
            raw_results.append(
                (password, await reader.readexactly(length))
            )
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _drive(meter, config, workload):
    """One full client fleet; returns (seconds, raw, telemetry, lat)."""
    server = ReproServer(meter, config)
    await server.start()
    try:
        port = server.port
        # Warm-up outside the clock: connection setup, first batch.
        warm = []
        await _client_loop(port, workload[0][:2], warm)
        raw_results = []
        start = time.perf_counter()
        await asyncio.gather(*[
            _client_loop(port, requests, raw_results)
            for requests in workload
        ])
        seconds = time.perf_counter() - start
        return (seconds, raw_results, server.telemetry,
                server._latency_summary())
    finally:
        await server.stop()


def test_timing_serving_throughput(corpora, csdn_quarters, capsys):
    train, test = csdn_quarters
    context = TrainContext(
        training=tuple(train.items()),
        base_dictionary=tuple(corpora["tianya"].unique_passwords()),
    )
    meter = registry.build_meter("fuzzypsm", context)

    stream = list(test.expand())
    workload = [
        [
            (password, _render_check(password))
            for password in (
                stream[(client * REQUESTS_PER_CLIENT + i) % len(stream)]
                for i in range(REQUESTS_PER_CLIENT)
            )
        ]
        for client in range(CLIENTS)
    ]
    flat = [pw for requests in workload for pw, _rendered in requests]
    reference = dict(zip(flat, meter.probability_many(flat)))

    batched_config = ServeConfig(batch_window=0.0, max_batch=256)
    unbatched_config = ServeConfig(batch_window=0.0, max_batch=1)

    def best_of(config):
        """Fastest of ``REPEATS`` full runs of one mode."""
        best = None
        for _ in range(REPEATS):
            run = asyncio.run(_drive(meter, config, workload))
            if best is None or run[0] < best[0]:
                best = run
        return best

    batched_seconds, batched_raw, telemetry, latency = best_of(
        batched_config
    )
    unbatched_seconds, unbatched_raw, _, _ = best_of(unbatched_config)

    # Equivalence first (always, smoke included): serving — batched or
    # not — returns exactly the direct frozen-kernel batch scores.
    for raw_results in (batched_raw, unbatched_raw):
        assert len(raw_results) == CLIENTS * REQUESTS_PER_CLIENT
        for password, body in raw_results:
            payload = json.loads(body)
            assert payload["probability"] == reference[password], (
                password
            )

    total = CLIENTS * REQUESTS_PER_CLIENT
    batched_rps = total / batched_seconds
    unbatched_rps = total / unbatched_seconds
    speedup = batched_rps / unbatched_rps
    dispatches = telemetry.counter("serve.batch.dispatches")
    mean_batch = total / dispatches if dispatches else 0.0

    emit(
        capsys,
        f"(timing) serving /check, {CLIENTS} clients x "
        f"{REQUESTS_PER_CLIENT} requests, in-process:\n"
        f"  batched   {batched_seconds:6.3f} s  "
        f"{batched_rps:8.0f} req/s  "
        f"(mean batch {mean_batch:5.1f})\n"
        f"  unbatched {unbatched_seconds:6.3f} s  "
        f"{unbatched_rps:8.0f} req/s\n"
        f"  speedup   {speedup:5.2f}x   "
        f"p50 {latency['p50'] * 1e3:6.2f} ms   "
        f"p99 {latency['p99'] * 1e3:6.2f} ms",
    )
    record(
        "serve_throughput",
        clients=CLIENTS,
        requests=total,
        batched_seconds=batched_seconds,
        unbatched_seconds=unbatched_seconds,
        batched_rps=batched_rps,
        unbatched_rps=unbatched_rps,
        speedup=speedup,
        mean_batch=mean_batch,
        p50_seconds=latency["p50"],
        p99_seconds=latency["p99"],
    )

    if SMOKE:
        return  # toy-scale ratios/latencies are noise
    assert speedup >= 2.0, (
        f"micro-batching only {speedup:.2f}x over per-call dispatch"
    )
    assert latency["p50"] <= P50_BUDGET, latency
    assert latency["p99"] <= P99_BUDGET, latency
