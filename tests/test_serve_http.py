"""Black-box HTTP suite for the serving layer.

Everything here talks to a real ``ReproServer`` on an ephemeral
loopback port through raw sockets — no internal shortcuts.  The two
core contracts:

* ``/check`` scores are **byte-identical** to direct
  ``FuzzyPSM.probability`` calls (JSON floats round-trip exactly via
  ``repr``), and every meter is scored off the event loop;
* every malformed request gets a clean 4xx/5xx response and never a
  hung connection.

Plus the ROADMAP-item-5 regression: the server's scoring path is the
frozen-kernel batch default (``probability_many``), never the
per-call dict-table loop.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro import obs
from repro.meters.pcfg import PCFGMeter
from repro.serve import ServeConfig
from repro.serve.app import MAX_SUGGEST_LENGTH

from tests.conftest import TRAINING_PASSWORDS
from tests.conftest import reference_scores as reference_path_scores
from tests.serve_utils import (
    SERVE_PASSWORDS,
    ServeClient,
    one_shot,
    run,
    running_server,
    train_serve_meter,
)


@pytest.fixture(scope="module")
def meter():
    return train_serve_meter()


@pytest.fixture(scope="module")
def reference_scores(meter):
    """Direct per-call scores, computed before any serving traffic."""
    return {pw: meter.probability(pw) for pw in SERVE_PASSWORDS}


# --- score equivalence --------------------------------------------------


def test_check_scores_byte_identical_to_direct(meter, reference_scores):
    async def main():
        async with running_server(meter, ServeConfig()) as server:
            async with ServeClient(server.port) as client:
                for password, expected in reference_scores.items():
                    payload = await client.check(password)
                    assert payload["probability"] == expected, password
                    assert payload["password"] == password

    run(main())


def test_concurrent_clients_all_score_correctly(meter, reference_scores):
    """16 concurrent keep-alive clients, interleaved passwords."""
    async def client_loop(port, offset):
        passwords = (SERVE_PASSWORDS[offset:]
                     + SERVE_PASSWORDS[:offset])
        async with ServeClient(port) as client:
            for password in passwords:
                payload = await client.check(password)
                assert (payload["probability"]
                        == reference_scores[password])

    async def main():
        async with running_server(meter, ServeConfig()) as server:
            await asyncio.gather(*[
                client_loop(server.port, i % len(SERVE_PASSWORDS))
                for i in range(16)
            ])
            status, metrics = await one_shot(
                server.port, "GET", "/metrics"
            )
            assert status == 200
            counters = metrics["counters"]
            assert (counters["serve.batch.requests"]
                    == counters["serve.batch.responses"]
                    == 16 * len(SERVE_PASSWORDS))

    run(main())


def test_unicode_capitals_do_not_fail_their_batch(meter):
    """U+0130 lower-cases to two code points and the Kelvin sign to a
    Latin ``k``: neither reads as a capitalised letter, so a ``/check``
    holding one scores like any other, and any micro-batch it shares
    with ordinary passwords answers every request."""
    passwords = [
        "\u0130stanbul", "password123", "a\u013012", "iloveyou1",
        "\u212aelvin7", "monkey99", "Password123", "\u0130",
    ]
    expected = reference_path_scores(meter, passwords)

    async def main():
        async with running_server(meter, ServeConfig()) as server:
            return await asyncio.gather(*[
                one_shot(server.port, "POST", "/check",
                         {"password": password})
                for password in passwords
            ])

    for password, want, (status, payload) in zip(
        passwords, expected, run(main())
    ):
        assert status == 200, (password, payload)
        assert payload["probability"] == want, password


def test_empty_password_scores_zero(meter):
    async def main():
        async with running_server(meter) as server:
            status, payload = await one_shot(
                server.port, "POST", "/check", {"password": ""}
            )
            assert status == 200
            assert payload["probability"] == 0.0
            assert payload["entropy_bits"] is None

    run(main())


# --- the other endpoints ------------------------------------------------


def test_suggest_endpoint_matches_direct_call(meter):
    from repro.core.suggestions import suggest_stronger
    import random

    direct = suggest_stronger(
        meter, "password", target_bits=10.0, rng=random.Random(0)
    )

    async def main():
        async with running_server(meter) as server:
            status, payload = await one_shot(
                server.port, "POST", "/suggest",
                {"password": "password", "target_bits": 10.0},
            )
            assert status == 200
            assert [s["password"] for s in payload["suggestions"]] == [
                s.password for s in direct
            ]
            assert [s["probability"]
                    for s in payload["suggestions"]] == [
                s.probability for s in direct
            ]

    run(main())


def test_suggest_rejects_passwords_over_the_length_bound():
    """/suggest's cost grows with the square of the length and holds
    the model lock, so an over-long password is refused up front."""
    fresh = train_serve_meter()
    longest = "password" * (MAX_SUGGEST_LENGTH // 8)
    assert len(longest) == MAX_SUGGEST_LENGTH == 64

    async def main():
        async with running_server(fresh) as server:
            status, payload = await one_shot(
                server.port, "POST", "/suggest",
                {"password": longest + "1"},
            )
            assert status == 400
            assert str(MAX_SUGGEST_LENGTH) in payload["error"]
            status, _ = await one_shot(
                server.port, "POST", "/suggest", {"password": longest}
            )
            assert status == 200

    run(main())


@pytest.mark.parametrize("path,field", [
    ("/accept", "count"),
    ("/suggest", "max_suggestions"),
    ("/suggest", "target_bits"),
])
def test_boolean_numbers_get_400(path, field):
    """JSON ``true`` is no count: ``bool`` subclasses ``int``."""
    fresh = train_serve_meter()
    epoch = fresh.grammar.epoch

    async def main():
        async with running_server(fresh) as server:
            status, payload = await one_shot(
                server.port, "POST", path,
                {"password": "password", field: True},
            )
            assert status == 400
            assert f"'{field}'" in payload["error"]
            _, health = await one_shot(server.port, "GET", "/healthz")
            assert health["epoch"] == epoch

    run(main())
    assert fresh.grammar.epoch == epoch


def test_policy_endpoint_named_and_custom(meter):
    async def main():
        async with running_server(meter) as server:
            status, payload = await one_shot(
                server.port, "POST", "/policy",
                {"password": "abc", "policy": "6-20"},
            )
            assert status == 200
            assert payload["allowed"] is False
            assert payload["violations"][0]["rule"] == "min_length"

            status, payload = await one_shot(
                server.port, "POST", "/policy",
                {"password": "longenough1", "policy": {
                    "min_length": 4, "max_length": 32,
                    "required_classes": ["digit"],
                }},
            )
            assert status == 200
            assert payload["allowed"] is True

            status, payload = await one_shot(
                server.port, "POST", "/policy",
                {"password": "x", "policy": "no-such-policy"},
            )
            assert status == 400

    run(main())


def test_healthz_and_metrics_without_workers(meter):
    async def main():
        async with running_server(meter) as server:
            status, payload = await one_shot(
                server.port, "GET", "/healthz"
            )
            assert status == 200
            assert payload["status"] == "healthy"
            assert payload["epoch"] == meter.grammar.epoch
            assert "workers" not in payload

            await one_shot(server.port, "POST", "/check",
                           {"password": "qwerty12"})
            status, metrics = await one_shot(
                server.port, "GET", "/metrics"
            )
            assert status == 200
            assert metrics["counters"]["serve.requests"] >= 2
            assert metrics["latency"]["count"] >= 2
            assert metrics["latency"]["p50"] is not None
            assert metrics["batcher"]["max_batch"] == 256
            assert "workers" not in metrics

    run(main())


# --- error paths: clean 4xx, never a hung connection --------------------


def test_unknown_route_404_and_wrong_method_405(meter):
    async def main():
        async with running_server(meter) as server:
            status, payload = await one_shot(
                server.port, "POST", "/nope", {"x": 1}
            )
            assert status == 404
            status, payload = await one_shot(
                server.port, "GET", "/check"
            )
            assert status == 405
            # The connection survives routing errors: keep-alive works.
            async with ServeClient(server.port) as client:
                status, _ = await client.request("GET", "/nope")
                assert status == 404
                payload = await client.check("password")
                assert payload["probability"] > 0

    run(main())


@pytest.mark.parametrize("body,field_error", [
    (b"this is not json", "not valid JSON"),
    (b"[1, 2, 3]", "must be a JSON object"),
    (json.dumps({"nope": 1}).encode(), "'password'"),
    (json.dumps({"password": 42}).encode(), "'password'"),
])
def test_bad_check_bodies_get_400(meter, body, field_error):
    async def main():
        async with running_server(meter) as server:
            async with ServeClient(server.port) as client:
                head = (
                    f"POST /check HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode()
                await client.send_raw(head + body)
                status, payload = await client.read_response()
                assert status == 400
                assert field_error in payload["error"]
                # 400s on well-framed requests keep the stream usable.
                payload = await client.check("password")
                assert payload["probability"] > 0

    run(main())


def test_oversized_body_413_then_close(meter):
    async def main():
        config = ServeConfig(max_body=256)
        async with running_server(meter, config) as server:
            async with ServeClient(server.port) as client:
                big = b"x" * 1024
                head = (
                    f"POST /check HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(big)}\r\n\r\n"
                ).encode()
                await client.send_raw(head + big)
                status, payload = await client.read_response()
                assert status == 413
                assert "256" in payload["error"]
                # close=True errors end the connection promptly.
                assert await client._reader.read() == b""

    run(main())


def test_garbage_request_line_400(meter):
    async def main():
        async with running_server(meter) as server:
            async with ServeClient(server.port) as client:
                await client.send_raw(b"NOT A REQUEST\r\n\r\n")
                status, _ = await client.read_response()
                assert status == 400
                assert await client._reader.read() == b""

    run(main())


def test_oversized_header_431(meter):
    async def main():
        async with running_server(meter) as server:
            async with ServeClient(server.port) as client:
                huge = b"X-Pad: " + b"a" * 20_000 + b"\r\n"
                await client.send_raw(
                    b"GET /healthz HTTP/1.1\r\n" + huge + b"\r\n"
                )
                status, _ = await client.read_response()
                assert status == 431

    run(main())


def test_transfer_encoding_501_and_bad_length_400(meter):
    async def main():
        async with running_server(meter) as server:
            async with ServeClient(server.port) as client:
                await client.send_raw(
                    b"POST /check HTTP/1.1\r\nHost: t\r\n"
                    b"Transfer-Encoding: chunked\r\n\r\n"
                )
                status, _ = await client.read_response()
                assert status == 501
            async with ServeClient(server.port) as client:
                await client.send_raw(
                    b"POST /check HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: banana\r\n\r\n"
                )
                status, _ = await client.read_response()
                assert status == 400

    run(main())


def test_client_vanishing_mid_body_does_not_wedge_server(meter):
    async def main():
        async with running_server(meter) as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                b"POST /check HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 500\r\n\r\n{\"password\":"
            )
            await writer.drain()
            writer.close()
            # The server must still answer other clients immediately.
            status, payload = await one_shot(
                server.port, "GET", "/healthz"
            )
            assert status == 200
            assert reader is not None

    run(main())


# --- ROADMAP item 5 regression: batch scoring uses the frozen kernel ----


def test_server_scores_through_frozen_kernel_batch_path():
    """The serving path is ``probability_many``'s frozen-kernel batch
    default — ``meter.batch.calls`` ticks and the frozen grammar is
    built — never the per-call ``meter.probability`` loop."""
    fresh = train_serve_meter()

    async def main(server):
        async with ServeClient(server.port) as client:
            await asyncio.gather(*[
                client_burst(server.port) for _ in range(4)
            ])
            await client.check("password")

    async def client_burst(port):
        async with ServeClient(port) as client:
            for password in SERVE_PASSWORDS[:6]:
                await client.check(password)

    with obs.session() as telemetry:
        async def wrapped():
            async with running_server(fresh, ServeConfig()) as server:
                await main(server)
        run(wrapped())
        assert telemetry.counter("meter.batch.calls") >= 1
        assert telemetry.counter("meter.frozen.builds") >= 1
        assert telemetry.counter("meter.probability") == 0


def test_every_served_meter_scores_off_the_event_loop():
    """A meter without the frozen-kernel batch path (PCFG here) is
    scored in the executor too: no ``probability`` call runs on the
    event loop's thread, and ``/check`` equals ``probability`` bit for
    bit."""
    meter = PCFGMeter.train(list(TRAINING_PASSWORDS))
    expected = {pw: meter.probability(pw) for pw in SERVE_PASSWORDS}
    assert any(expected.values())
    threads = []
    probability = meter.probability

    def recorded(password):
        threads.append(threading.get_ident())
        return probability(password)

    meter.probability = recorded

    async def main():
        async with running_server(meter) as server:
            async with ServeClient(server.port) as client:
                for password, want in expected.items():
                    payload = await client.check(password)
                    assert payload["probability"] == want, password
        return threading.get_ident()

    loop_thread = run(main())
    assert len(threads) == len(expected)
    assert loop_thread not in threads


def test_accepted_lone_surrogate_keeps_checks_scoring():
    """JSON's ``"\\ud800"`` escape decodes to a lone surrogate, which an
    /accept stores as a terminal.  The next /check rebuilds the frozen
    grammar, which encodes every new terminal to find its leet rules:
    it must answer 200 with the reference score, not 500."""
    meter = train_serve_meter()
    replay = train_serve_meter()
    password = "x\ud800y1"
    replay.update(password)
    expected = replay.probability(password)
    assert expected > 0.0

    async def main():
        async with running_server(meter, ServeConfig()) as server:
            async with ServeClient(server.port) as client:
                accept = await client.request(
                    "POST", "/accept", {"password": password}
                )
                check = await client.request(
                    "POST", "/check", {"password": password}
                )
                return accept, check

    (accept_status, _), (check_status, check) = run(main())
    assert (accept_status, check_status) == (200, 200), check
    assert check["probability"] == expected


# --- /accept beside /check: one lock per model --------------------------


#: Seconds a held /check batch waits for an overlapping /accept to be
#: answered.  With the model lock the /accept cannot finish first, so
#: the wait always runs out; without it the /accept lands mid-batch.
ACCEPT_HOLD_SECONDS = 1.0


def test_check_reports_the_epoch_its_score_came_from():
    """A /check whose batch is still scoring when an /accept arrives
    must report the epoch it was scored at: the pair replays exactly.

    The meter's ``probability_many`` is wrapped so the batch, once
    scored, waits (bounded) for the /accept to be answered before
    returning.  The server must hold the model's lock across the whole
    executor call — score and epoch read — so the /accept waits
    instead of updating the grammar under a running batch.
    """
    meter = train_serve_meter()
    replay = train_serve_meter()
    password = "password123"
    before = (replay.grammar.epoch, replay.probability(password))
    replay.update(password)
    after = (replay.grammar.epoch, replay.probability(password))
    assert before[1] != after[1]

    scored, answered = threading.Event(), threading.Event()
    probability_many = meter.probability_many

    def held(passwords):
        scores = probability_many(passwords)
        scored.set()
        answered.wait(ACCEPT_HOLD_SECONDS)
        return scores

    meter.probability_many = held

    async def main():
        loop = asyncio.get_running_loop()
        async with running_server(meter, ServeConfig()) as server:
            async with ServeClient(server.port) as checker, \
                    ServeClient(server.port) as acceptor:
                check = asyncio.ensure_future(checker.request(
                    "POST", "/check", {"password": password}
                ))
                assert await loop.run_in_executor(None, scored.wait, 10.0)
                accept = await acceptor.request(
                    "POST", "/accept", {"password": password}
                )
                answered.set()
                return await check, accept

    (check_status, check), (accept_status, accept) = run(main())
    assert (check_status, accept_status) == (200, 200)
    assert accept["epoch"] == after[0]
    assert (check["epoch"], check["probability"]) in (before, after)
