"""Multi-model serving: registry, routing, and per-model hot reload.

One ``ReproServer`` hosts several trained models behind a ``model=``
request parameter (DESIGN.md §14): each model gets its own lock, its
own micro-batcher, and its own ``/accept`` lifecycle.  These tests are
black-box over HTTP, plus unit coverage of
:class:`repro.serve.SnapshotRegistry`.
"""

from __future__ import annotations

import pytest

from repro.core.meter import FuzzyPSM
from repro.serve import ReproServer, ServeConfig, SnapshotRegistry

from tests.conftest import BASE_DICTIONARY
from tests.serve_utils import one_shot, run, train_serve_meter

#: Training list for the second model — overlapping head, different
#: tail, so the two models score shared probes differently.
ALT_TRAINING = [
    "password", "password", "dragon99", "dragon99", "Dragon99",
    "qwerty", "qwerty", "qwerty123", "monkey", "m0nkey",
    "letmein", "letmein", "iloveyou", "111111", "111111",
]

#: Scored by both models; both derive them with nonzero probability.
SHARED_PROBES = ["password", "qwerty12", "monkey99", "iloveyou1"]


def _train_alt() -> FuzzyPSM:
    return FuzzyPSM.train(list(BASE_DICTIONARY), list(ALT_TRAINING))


def _registry() -> SnapshotRegistry:
    return (
        SnapshotRegistry()
        .add("rockyou", train_serve_meter())
        .add("corporate", _train_alt())
    )


class TestSnapshotRegistry:
    def test_add_resolve_and_default(self):
        registry = _registry()
        assert registry.names() == ("rockyou", "corporate")
        assert registry.default_name == "rockyou"
        assert len(registry) == 2
        assert "corporate" in registry
        name, meter = registry.resolve(None)
        assert name == "rockyou"
        assert registry.resolve("corporate")[0] == "corporate"

    def test_duplicate_and_invalid_names_rejected(self):
        registry = SnapshotRegistry().add("m", train_serve_meter())
        with pytest.raises(ValueError, match="duplicate model name"):
            registry.add("m", train_serve_meter())
        for bad in ("", "-leading", "has space", "a/b"):
            with pytest.raises(ValueError):
                registry.add(bad, train_serve_meter())

    def test_unknown_model_and_empty_registry(self):
        registry = _registry()
        with pytest.raises(KeyError, match="corporate"):
            registry.resolve("nope")
        with pytest.raises(ValueError):
            SnapshotRegistry().default_name

    def test_single_wraps_a_bare_meter(self):
        registry = SnapshotRegistry.single(train_serve_meter())
        assert registry.names() == ("default",)


class TestMultiModelRouting:
    """Routing semantics only."""

    def test_query_body_and_default_routing(self):
        registry = _registry()
        reference = {
            name: {pw: meter.probability(pw) for pw in SHARED_PROBES}
            for name, meter in registry.items()
        }
        # The probe set must genuinely separate the two models.
        assert reference["rockyou"] != reference["corporate"]

        async def main():
            server = ReproServer(registry, ServeConfig())
            await server.start()
            try:
                port = server.port
                for probe in SHARED_PROBES:
                    # No parameter: default (first-registered) model.
                    _, plain = await one_shot(
                        port, "POST", "/check", {"password": probe}
                    )
                    assert plain["model"] == "rockyou"
                    assert plain["probability"] == reference[
                        "rockyou"
                    ][probe]
                    # Body field routes.
                    _, via_body = await one_shot(
                        port, "POST", "/check",
                        {"password": probe, "model": "corporate"},
                    )
                    assert via_body["model"] == "corporate"
                    assert via_body["probability"] == reference[
                        "corporate"
                    ][probe]
                    # Query parameter routes — and beats the body.
                    _, via_query = await one_shot(
                        port, "POST", "/check?model=corporate",
                        {"password": probe, "model": "rockyou"},
                    )
                    assert via_query["model"] == "corporate"
                    assert via_query["probability"] == reference[
                        "corporate"
                    ][probe]
            finally:
                await server.stop()

        run(main())

    def test_unknown_model_is_a_client_error(self):
        async def main():
            server = ReproServer(_registry(), ServeConfig())
            await server.start()
            try:
                status, payload = await one_shot(
                    server.port, "POST", "/check?model=absent",
                    {"password": "password"},
                )
                assert status == 400
                assert "absent" in payload["error"]
                assert "rockyou" in payload["error"]
                status, payload = await one_shot(
                    server.port, "POST", "/check",
                    {"password": "password", "model": 7},
                )
                assert status == 400
            finally:
                await server.stop()

        run(main())


class TestMultiModelLifecycle:
    """Per-model hot reload: an accept updates one model only."""

    def test_per_model_accept_swaps_only_that_model(self):
        registry = _registry()
        epochs = {
            name: meter.grammar.epoch
            for name, meter in registry.items()
        }
        post_meter = FuzzyPSM.from_dict(
            dict(registry.resolve("corporate")[1].to_dict())
        )
        post_meter.update("zebra42!", 50)
        post_reference = post_meter.probability("zebra42!")

        async def main():
            server = ReproServer(registry, ServeConfig())
            await server.start()
            try:
                port = server.port
                _, before = await one_shot(
                    port, "POST", "/check?model=corporate",
                    {"password": "zebra42!"},
                )
                # Update only the corporate model.
                status, accepted = await one_shot(
                    port, "POST", "/accept?model=corporate",
                    {"password": "zebra42!", "count": 50},
                )
                assert status == 200
                assert accepted["model"] == "corporate"
                assert accepted["epoch"] == epochs["corporate"] + 1
                _, after = await one_shot(
                    port, "POST", "/check?model=corporate",
                    {"password": "zebra42!"},
                )
                assert after["epoch"] == epochs["corporate"] + 1
                assert after["probability"] == post_reference
                assert after["probability"] != before["probability"]
                # The sibling model is untouched: same epoch.
                _, sibling = await one_shot(
                    port, "POST", "/check?model=rockyou",
                    {"password": "zebra42!"},
                )
                assert sibling["epoch"] == epochs["rockyou"]
                # Health and metrics expose the per-model breakdown.
                status, health = await one_shot(
                    port, "GET", "/healthz"
                )
                assert status == 200
                assert set(health["models"]) == {
                    "rockyou", "corporate"
                }
                assert health["models"]["corporate"]["epoch"] == \
                    epochs["corporate"] + 1
                assert health["models"]["rockyou"]["epoch"] == \
                    epochs["rockyou"]
                _, metrics = await one_shot(port, "GET", "/metrics")
                assert set(metrics["models"]) == {
                    "rockyou", "corporate"
                }
            finally:
                await server.stop()

        run(main())
