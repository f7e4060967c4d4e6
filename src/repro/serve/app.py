"""The asyncio HTTP server composing a batcher per model.

:class:`ReproServer` is the online face of the meter (DESIGN.md §14):

* ``POST /check``   — measure one password (micro-batched);
* ``POST /suggest`` — stronger-variant suggestions;
* ``POST /policy``  — policy compliance check;
* ``POST /accept``  — online ``update()``, scored from the next batch;
* ``GET /healthz``  — liveness plus the epoch each model serves;
* ``GET /metrics``  — ``serve.*`` counters, latency percentiles.

One process can serve several trained models: construct the server
with a :class:`~repro.serve.registry.SnapshotRegistry` (a bare meter
is wrapped as a one-model registry) and route requests with the
``model=`` parameter — query string (``/check?model=canary``) or JSON
body field — defaulting to the first-registered model.  Each model
gets its own lock and micro-batcher, so a per-model ``/accept``
updates one model without touching its neighbours.

Scoring never runs on the event loop: every batch runs the meter's
``probability_many`` in the default executor.

Every use of a model's meter — a batch together with the epoch it
reports, ``/accept``'s update, ``/suggest`` — holds that model's lock,
across the executor call.  The meter's grammar, frozen kernel and
parse cache are not thread-safe, so without it an ``/accept`` could
mutate the grammar under a running batch.

The server owns a private :class:`~repro.obs.core.Telemetry` backend,
so ``/metrics`` is always live even when the process-global backend is
the no-op default.
"""

from __future__ import annotations

import asyncio
import math
import random
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import (
    Any, Awaitable, Callable, Deque, Dict, List, Optional, Set, Tuple,
)
from urllib.parse import parse_qs

from repro.core.policy import COMMON_POLICIES, PasswordPolicy
from repro.core.suggestions import suggest_stronger
from repro.meters.base import probability_to_entropy
from repro.meters.registry import Capability, spec_for
from repro.obs.core import Telemetry, now as _now
from repro.serve.batcher import MicroBatcher
from repro.serve.http import (
    MAX_HEADER_BYTES, HttpError, Request, read_request, render_response,
)
from repro.serve.registry import SnapshotRegistry

#: Longest password ``/suggest`` takes (400 beyond it).  Its cost grows
#: with the square of the length, and it holds the model lock that
#: every ``/check`` of that model waits on.
MAX_SUGGEST_LENGTH = 64

#: Routes the server answers, for 404-vs-405 discrimination.
_ROUTES = {
    "/check": ("POST",),
    "/suggest": ("POST",),
    "/policy": ("POST",),
    "/accept": ("POST",),
    "/healthz": ("GET",),
    "/metrics": ("GET",),
}

#: Keys a JSON ``/policy`` request may use to define a custom policy.
_POLICY_KEYS = ("min_length", "max_length", "required_classes")


def _is_integer(value: Any) -> bool:
    """A JSON integer: ``bool`` subclasses ``int`` but is no count."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ServeConfig:
    """Tunables for one :class:`ReproServer`.

    Attributes:
        host: bind address (loopback by default).
        port: bind port; ``0`` picks an ephemeral port.
        batch_window: micro-batch coalescing window in seconds; ``0``
            (the default) is self-clocking — batches form from
            requests arriving while the previous dispatch is in
            flight, adding no latency (see
            :mod:`repro.serve.batcher`).
        max_batch: most requests folded into one scoring call
            (``1`` disables coalescing entirely).
        max_body: request-body byte cap (413 beyond it).
        idle_timeout: seconds a keep-alive connection may sit idle.
    """

    host: str = "127.0.0.1"
    port: int = 0
    batch_window: float = 0.0
    max_batch: int = 256
    max_body: int = 64 * 1024
    idle_timeout: float = 30.0


class _ModelRuntime:
    """Per-model serving state: meter, capability, lock, batcher.

    ``lock`` guards every use of ``meter`` (see the module docstring).
    """

    __slots__ = ("name", "meter", "updatable", "batcher", "lock")

    def __init__(self, name: str, meter: Any) -> None:
        self.name = name
        self.meter = meter
        # Created by ReproServer.start, on the serving event loop:
        # Python 3.9 binds an asyncio.Lock to a loop when it is built.
        self.lock: asyncio.Lock
        spec = spec_for(meter)
        self.updatable = (
            spec is not None and spec.has(Capability.UPDATABLE)
        )
        self.batcher: Optional[MicroBatcher] = None

    @property
    def epoch(self) -> int:
        """Grammar epoch this model currently serves."""
        grammar = getattr(self.meter, "grammar", None)
        return int(getattr(grammar, "epoch", 0))

    def status(self) -> Dict[str, Any]:
        """Per-model block for ``/healthz`` and ``/metrics``."""
        return {"epoch": self.epoch}


class ReproServer:
    """Registered meters served over HTTP with micro-batching."""

    def __init__(self, meter: Any,
                 config: Optional[ServeConfig] = None) -> None:
        registry = (
            meter if isinstance(meter, SnapshotRegistry)
            else SnapshotRegistry.single(meter)
        )
        if len(registry) == 0:
            raise ValueError("registry has no models to serve")
        self._config = config if config is not None else ServeConfig()
        self._telemetry = Telemetry()
        self._runtimes: Dict[str, _ModelRuntime] = {
            name: _ModelRuntime(name, model)
            for name, model in registry.items()
        }
        self._default = registry.default_name
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set["asyncio.Task[None]"] = set()
        self._latencies: Deque[float] = deque(maxlen=4096)
        self._handlers: Dict[str, Callable[
            [Request], Awaitable[Tuple[int, Dict[str, Any]]]
        ]] = {
            "/check": self._check,
            "/suggest": self._suggest,
            "/policy": self._policy,
            "/accept": self._accept,
            "/healthz": self._healthz,
            "/metrics": self._metrics,
        }

    # --- introspection -------------------------------------------------

    @property
    def telemetry(self) -> Telemetry:
        """The server's private telemetry backend (for tests/benches)."""
        return self._telemetry

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not running")
        return int(self._server.sockets[0].getsockname()[1])

    @property
    def models(self) -> Tuple[str, ...]:
        """Model names served, default (first-registered) first."""
        return tuple(self._runtimes)

    @property
    def epoch(self) -> int:
        """Grammar epoch of the default model."""
        return self._runtimes[self._default].epoch

    # --- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Create each model's lock and batcher, then bind."""
        if self._server is not None:
            raise RuntimeError("server already started")
        config = self._config
        for runtime in self._runtimes.values():
            runtime.lock = asyncio.Lock()
            runtime.batcher = MicroBatcher(
                partial(self._score_batch, runtime),
                window=config.batch_window,
                max_batch=config.max_batch,
                telemetry=self._telemetry,
            )
            await runtime.batcher.start()
        self._server = await asyncio.start_server(
            self._on_connection, config.host, config.port,
            limit=MAX_HEADER_BYTES,
        )

    async def stop(self) -> None:
        """Stop accepting, drain/cancel connections, tear down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(
                *self._connections, return_exceptions=True
            )
            self._connections.clear()
        for runtime in self._runtimes.values():
            batcher = runtime.batcher
            runtime.batcher = None
            if batcher is not None:
                await batcher.stop()

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("server is not running")
        await self._server.serve_forever()

    # --- connection handling -------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._handle_connection(reader, writer)
        except asyncio.CancelledError:
            # Server shutdown cancels connection tasks; completing
            # normally here keeps asyncio.streams' done-callback (which
            # calls task.exception() unguarded) from logging it.
            self._telemetry.incr("serve.connection.cancelled")
        finally:
            if task is not None:
                self._connections.discard(task)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        telemetry = self._telemetry
        telemetry.incr("serve.connections")
        # Idle enforcement by watchdog, not a per-request wait_for:
        # wait_for wraps every read in a fresh task, which costs more
        # than the whole header parse.  The watchdog closes the
        # transport when the deadline lapses, which surfaces to the
        # pending read as a clean end-of-stream.
        loop = asyncio.get_running_loop()
        idle_timeout = self._config.idle_timeout
        deadline = [_now() + idle_timeout]
        timer: List[Optional[asyncio.TimerHandle]] = [None]

        def watchdog() -> None:
            remaining = deadline[0] - _now()
            if remaining <= 0:
                timer[0] = None
                writer.close()
            else:
                timer[0] = loop.call_later(remaining, watchdog)

        if idle_timeout > 0:
            timer[0] = loop.call_later(idle_timeout, watchdog)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, self._config.max_body
                    )
                except HttpError as error:
                    telemetry.incr("serve.http.errors")
                    writer.write(render_response(
                        error.status, {"error": error.detail},
                        keep_alive=False,
                    ))
                    await writer.drain()
                    break
                if request is None:
                    break
                start = _now()
                deadline[0] = start + idle_timeout
                keep_alive = request.keep_alive
                try:
                    status, payload = await self._route(request)
                except HttpError as error:
                    telemetry.incr("serve.http.errors")
                    status, payload = error.status, {
                        "error": error.detail
                    }
                    if error.close:
                        keep_alive = False
                except Exception as error:
                    telemetry.incr("serve.internal.errors")
                    status, payload = 500, {
                        "error": f"internal error: {error!r}"
                    }
                elapsed = _now() - start
                self._latencies.append(elapsed)
                telemetry.incr("serve.requests")
                telemetry.observe("serve.request.seconds", elapsed)
                writer.write(
                    render_response(status, payload, keep_alive)
                )
                await writer.drain()
                if not keep_alive:
                    break
                deadline[0] = _now() + idle_timeout
        finally:
            if timer[0] is not None:
                timer[0].cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                self._telemetry.incr("serve.connection.resets")

    async def _route(self, request: Request) -> Tuple[int, Dict[str, Any]]:
        methods = _ROUTES.get(request.path)
        if methods is None:
            raise HttpError(404, f"no route {request.path!r}")
        if request.method not in methods:
            raise HttpError(
                405,
                f"{request.method} not allowed on {request.path}",
            )
        return await self._handlers[request.path](request)

    # --- scoring backend ----------------------------------------------

    async def _score_batch(
        self, runtime: _ModelRuntime, passwords: List[str]
    ) -> Tuple[int, List[float]]:
        """Score one micro-batch for ``runtime`` off the event loop.

        The model lock is held until the epoch is read, so no
        ``/accept`` can land between score and label.
        """
        async with runtime.lock:
            scores = await asyncio.get_running_loop().run_in_executor(
                None, runtime.meter.probability_many, passwords
            )
            return runtime.epoch, scores

    # --- handlers ------------------------------------------------------

    def _resolve_model(
        self,
        request: Request,
        payload: Optional[Dict[str, Any]] = None,
    ) -> _ModelRuntime:
        """The model a request routes to (``model=`` query or body).

        The query string wins over the body field; no parameter at all
        routes to the default (first-registered) model.
        """
        name: Optional[str] = None
        if request.query:
            values = parse_qs(request.query).get("model")
            if values:
                name = values[-1]
        if name is None and payload is not None:
            raw = payload.get("model")
            if raw is not None:
                if not isinstance(raw, str):
                    raise HttpError(400, "'model' must be a JSON string")
                name = raw
        if name is None:
            name = self._default
        runtime = self._runtimes.get(name)
        if runtime is None:
            known = ", ".join(self._runtimes)
            raise HttpError(
                400, f"unknown model {name!r}; serving: {known}"
            )
        return runtime

    @staticmethod
    def _password_field(payload: Dict[str, Any]) -> str:
        password = payload.get("password")
        if not isinstance(password, str):
            raise HttpError(400, "'password' must be a JSON string")
        return password

    @staticmethod
    def _bits(probability: float) -> Optional[float]:
        """Entropy bits, with unreachable (p=0) rendered as null."""
        bits = probability_to_entropy(probability)
        return bits if math.isfinite(bits) else None

    async def _check(
        self, request: Request
    ) -> Tuple[int, Dict[str, Any]]:
        payload = request.json()
        runtime = self._resolve_model(request, payload)
        password = self._password_field(payload)
        batcher = runtime.batcher
        if batcher is None:
            raise HttpError(503, "server is shutting down")
        epoch, probability = await batcher.submit(password)
        return 200, {
            "password": password,
            "probability": probability,
            "entropy_bits": self._bits(probability),
            "epoch": epoch,
            "model": runtime.name,
        }

    async def _suggest(
        self, request: Request
    ) -> Tuple[int, Dict[str, Any]]:
        payload = request.json()
        runtime = self._resolve_model(request, payload)
        password = self._password_field(payload)
        if len(password) > MAX_SUGGEST_LENGTH:
            raise HttpError(
                400,
                f"'password' longer than {MAX_SUGGEST_LENGTH} characters",
            )
        target_bits = payload.get("target_bits", 20.0)
        max_suggestions = payload.get("max_suggestions", 5)
        if isinstance(target_bits, bool) \
                or not isinstance(target_bits, (int, float)):
            raise HttpError(400, "'target_bits' must be a number")
        if not _is_integer(max_suggestions):
            raise HttpError(400, "'max_suggestions' must be an integer")
        call = partial(
            suggest_stronger, runtime.meter, password,
            target_bits=float(target_bits),
            max_suggestions=max_suggestions,
            rng=random.Random(0),
        )
        try:
            async with runtime.lock:
                suggestions = await (
                    asyncio.get_running_loop().run_in_executor(None, call)
                )
        except ValueError as error:
            raise HttpError(400, str(error))
        return 200, {
            "password": password,
            "model": runtime.name,
            "target_bits": float(target_bits),
            "suggestions": [
                {
                    "password": s.password,
                    "probability": s.probability,
                    "entropy_bits": self._bits(s.probability),
                    "edits": list(s.edits),
                }
                for s in suggestions
            ],
        }

    async def _policy(
        self, request: Request
    ) -> Tuple[int, Dict[str, Any]]:
        payload = request.json()
        password = self._password_field(payload)
        chosen = payload.get("policy", "6-20")
        if isinstance(chosen, str):
            policy = COMMON_POLICIES.get(chosen)
            if policy is None:
                known = ", ".join(sorted(COMMON_POLICIES))
                raise HttpError(
                    400, f"unknown policy {chosen!r}; known: {known}"
                )
        elif isinstance(chosen, dict):
            unknown = set(chosen) - set(_POLICY_KEYS)
            if unknown:
                raise HttpError(
                    400,
                    f"unknown policy keys: {', '.join(sorted(unknown))}",
                )
            fields = dict(chosen)
            if "required_classes" in fields:
                classes = fields["required_classes"]
                if not isinstance(classes, list):
                    raise HttpError(
                        400, "'required_classes' must be a list"
                    )
                fields["required_classes"] = tuple(classes)
            try:
                policy = PasswordPolicy(**fields)
            except (TypeError, ValueError) as error:
                raise HttpError(400, f"invalid policy: {error}")
        else:
            raise HttpError(
                400, "'policy' must be a name or an object"
            )
        violations = policy.violations(password)
        return 200, {
            "password": password,
            "policy": policy.describe(),
            "allowed": not violations,
            "violations": [
                {"rule": v.rule, "message": v.message}
                for v in violations
            ],
        }

    async def _accept(
        self, request: Request
    ) -> Tuple[int, Dict[str, Any]]:
        """Online update: the measure→update loop.

        Per-model: only the routed model's meter updates — sibling
        models keep serving their epochs untouched.  The update and the
        epoch read share the model lock, so concurrent accepts report
        their epochs in order, and once the client sees this response
        every later batch scores the new epoch.
        """
        payload = request.json()
        runtime = self._resolve_model(request, payload)
        if not runtime.updatable:
            raise HttpError(405, "meter does not support online update")
        password = self._password_field(payload)
        count = payload.get("count", 1)
        if not _is_integer(count):
            raise HttpError(400, "'count' must be an integer")
        async with runtime.lock:
            try:
                runtime.meter.update(password, count)
            except ValueError as error:
                raise HttpError(400, str(error))
            self._telemetry.incr("serve.accepts")
            epoch = runtime.epoch
        return 200, {
            "accepted": True,
            "password": password,
            "count": count,
            "epoch": epoch,
            "model": runtime.name,
        }

    async def _healthz(
        self, request: Request
    ) -> Tuple[int, Dict[str, Any]]:
        # The top-level epoch stays the default model's (the
        # single-model shape); per-model detail lives under "models".
        return 200, {
            "status": "healthy",
            "epoch": self.epoch,
            "models": {
                runtime.name: runtime.status()
                for runtime in self._runtimes.values()
            },
        }

    def _latency_summary(self) -> Dict[str, Any]:
        samples = sorted(self._latencies)
        if not samples:
            return {"count": 0, "p50": None, "p90": None,
                    "p99": None, "max": None}
        last = len(samples) - 1

        def at(quantile: float) -> float:
            return samples[min(last, int(round(quantile * last)))]

        return {
            "count": len(samples),
            "p50": at(0.50),
            "p90": at(0.90),
            "p99": at(0.99),
            "max": samples[last],
        }

    async def _metrics(
        self, request: Request
    ) -> Tuple[int, Dict[str, Any]]:
        default = self._runtimes[self._default]
        batcher = default.batcher
        return 200, {
            "counters": dict(sorted(self._telemetry.counters().items())),
            "latency": self._latency_summary(),
            "batcher": (
                {
                    "window": batcher.window,
                    "max_batch": batcher.max_batch,
                    "pending": batcher.pending,
                }
                if batcher is not None else None
            ),
            "epoch": default.epoch,
            "models": {
                runtime.name: runtime.status()
                for runtime in self._runtimes.values()
            },
        }
