"""Hot-reload tests for the serving layer.

The lifecycle guarantee under test, black-box: an ``/accept`` (online
``update()``) in the middle of concurrent ``/check`` traffic drops
zero requests, and every response is *consistent with the epoch it
reports* — old-grammar scores before the update, new-grammar scores
after, never a half-updated hybrid.  Plus ``/accept``'s input
validation.
"""

from __future__ import annotations

import asyncio

from repro.core.meter import FuzzyPSM
from repro.serve import ServeConfig

from tests.serve_utils import (
    ServeClient,
    one_shot,
    run,
    running_server,
    train_serve_meter,
)

#: The online update applied mid-traffic; with count high enough the
#: post-update probabilities differ measurably from pre-update.
ACCEPTED_PASSWORD = "zebra42!"
ACCEPTED_COUNT = 50

#: Passwords whose scores the reload traffic keeps checking.
TRAFFIC = ["password", "password123", "qwerty12", "monkey99",
           "woaini520", ACCEPTED_PASSWORD]


def _clone(meter: FuzzyPSM) -> FuzzyPSM:
    return FuzzyPSM.from_dict(meter.to_dict())


def test_hot_reload_mid_traffic_consistent_and_lossless():
    meter = train_serve_meter()
    pre_epoch = meter.grammar.epoch
    pre_reference = {
        pw: _clone(meter).probability(pw) for pw in TRAFFIC
    }
    post_meter = _clone(meter)
    post_meter.update(ACCEPTED_PASSWORD, ACCEPTED_COUNT)
    post_reference = {
        pw: post_meter.probability(pw) for pw in TRAFFIC
    }
    # The update must actually change something, or consistency
    # against the reported epoch would be vacuous.
    assert post_reference[ACCEPTED_PASSWORD] != pre_reference[
        ACCEPTED_PASSWORD
    ]

    responses = []

    async def traffic_loop(port, rounds):
        async with ServeClient(port) as client:
            for _ in range(rounds):
                for password in TRAFFIC:
                    responses.append(
                        (password, await client.check(password))
                    )

    async def main():
        config = ServeConfig(batch_window=0.001)
        async with running_server(meter, config) as server:
            clients = [
                asyncio.ensure_future(traffic_loop(server.port, 6))
                for _ in range(4)
            ]
            # Let pre-update traffic flow: accept once a sixth of the
            # responses are in, so most of the traffic follows it.
            while len(responses) < len(TRAFFIC) * 4:
                await asyncio.sleep(0.001)
            status, payload = await one_shot(
                server.port, "POST", "/accept",
                {"password": ACCEPTED_PASSWORD,
                 "count": ACCEPTED_COUNT},
            )
            assert status == 200
            assert payload["epoch"] == pre_epoch + 1
            await asyncio.gather(*clients)
            # Sequential-after-accept: a fresh request must see the
            # new epoch (the update completed before /accept answered).
            final = await one_shot(
                server.port, "POST", "/check",
                {"password": ACCEPTED_PASSWORD},
            )
            assert final[1]["epoch"] == pre_epoch + 1

    run(main())

    assert len(responses) == 4 * 6 * len(TRAFFIC)  # zero dropped
    epochs_seen = set()
    for password, payload in responses:
        epoch = payload["epoch"]
        epochs_seen.add(epoch)
        if epoch == pre_epoch:
            assert payload["probability"] == pre_reference[password]
        else:
            assert epoch == pre_epoch + 1
            assert payload["probability"] == post_reference[password]
    assert pre_epoch in epochs_seen  # traffic genuinely straddled
    assert pre_epoch + 1 in epochs_seen  # the update


def test_accept_validates_input():
    meter = train_serve_meter()

    async def main():
        async with running_server(meter) as server:
            status, payload = await one_shot(
                server.port, "POST", "/accept", {"password": ""}
            )
            assert status == 400
            status, payload = await one_shot(
                server.port, "POST", "/accept",
                {"password": "ok-pass", "count": 0},
            )
            assert status == 400
            status, payload = await one_shot(
                server.port, "POST", "/accept",
                {"password": "ok-pass", "count": "many"},
            )
            assert status == 400

    run(main())
