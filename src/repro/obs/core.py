"""Counters, log-spaced histograms and span timers for the hot path.

The scoring pipeline (parse → derive → score) is instrumented with
three primitive kinds:

* **counters** — monotonically increasing integers keyed by a dotted
  probe name (``parser.segment.trie_hit``);
* **histograms** — fixed log-spaced buckets over non-negative values
  (stage latencies in seconds, batch sizes).  Bucket boundaries are
  frozen at class level, so two snapshots are always mergeable and a
  test can assert exact bucket placement without touching the wall
  clock;
* **spans** — context-manager stage timers that observe their elapsed
  time into a histogram (``with tel.timer("train.serial.seconds"):``).

:class:`Telemetry` aggregates all three; :class:`NoopTelemetry` is the
zero-overhead backend installed by default (every probe degrades to a
predicate check or an empty method call).  Hot loops must fetch the
active backend once and guard per-item work with ``if tel.enabled:``
— see DESIGN.md §9 for the probe authoring rules.

The clock is injectable (``Telemetry(clock=...)``) so span tests run
against a fake clock: nothing in this module's test surface depends on
wall-clock time.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from types import TracebackType
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

#: Signature of an injectable monotonic clock (seconds as float).
Clock = Callable[[], float]

#: The process-wide monotonic clock used when none is injected.  Other
#: ``repro`` modules that need a raw timestamp (e.g. worker-side chunk
#: timing in :mod:`repro.core.training`) import this name instead of
#: calling :mod:`time` directly — the FPM009 lint rule forbids direct
#: wall-clock calls outside ``obs/`` so every timing source stays
#: swappable in one place.
now: Clock = time.perf_counter


def log_spaced_bounds(
    lowest: float, steps_per_decade: int, decades: int
) -> Tuple[float, ...]:
    """Fixed log-spaced bucket boundaries, smallest first.

    >>> [round(b, 6) for b in log_spaced_bounds(1e-3, 1, 3)]
    [0.001, 0.01, 0.1]
    """
    return tuple(
        lowest * 10.0 ** (step / steps_per_decade)
        for step in range(steps_per_decade * decades)
    )


class Histogram:
    """A fixed-bucket histogram over non-negative float values.

    Buckets are the half-open intervals between consecutive
    boundaries, plus an underflow bucket below the first boundary and
    an overflow bucket at the end.  The default boundaries span 1 µs
    to 1000 s with four buckets per decade — wide enough for both
    stage latencies (seconds) and batch sizes (counts).
    """

    #: 1e-6 .. 1e+3 at 4 buckets/decade: 36 boundaries, 37 buckets.
    BOUNDS: Tuple[float, ...] = log_spaced_bounds(
        1e-6, steps_per_decade=4, decades=9
    )

    __slots__ = ("_bucket_counts", "count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self._bucket_counts = [0] * (len(self.BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float, times: int = 1) -> None:
        """Record ``value`` ``times`` times (clamped into the fixed
        bucket range); ``total`` grows by ``value * times``."""
        self._bucket_counts[bisect_right(self.BOUNDS, value)] += times
        self.count += times
        self.total += value * times
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def bucket_index(self, value: float) -> int:
        """The bucket an observation of ``value`` lands in."""
        return bisect_right(self.BOUNDS, value)

    def nonzero_buckets(self) -> List[Tuple[Optional[float], int]]:
        """``(upper_bound, count)`` for every occupied bucket.

        The upper bound is the first boundary strictly above the
        bucket's values; the overflow bucket reports ``None``.
        """
        out: List[Tuple[Optional[float], int]] = []
        for index, bucket_count in enumerate(self._bucket_counts):
            if bucket_count:
                bound = (
                    self.BOUNDS[index] if index < len(self.BOUNDS) else None
                )
                out.append((bound, bucket_count))
        return out

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready summary (occupied buckets only)."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "mean": self.mean,
            "buckets": [
                {"le": bound, "count": bucket_count}
                for bound, bucket_count in self.nonzero_buckets()
            ],
        }


class Span:
    """A context-manager stage timer feeding one histogram.

    Entering reads the telemetry clock, exiting observes the elapsed
    seconds under the span's probe name.  Exceptions propagate — a
    failed stage still records how long it ran.
    """

    __slots__ = ("_telemetry", "_name", "_start")

    def __init__(self, telemetry: "Telemetry", name: str) -> None:
        self._telemetry = telemetry
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._start = self._telemetry.clock()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        traceback: Optional[TracebackType],
    ) -> None:
        self._telemetry.observe(
            self._name, self._telemetry.clock() - self._start
        )


class Telemetry:
    """The collecting backend: named counters, histograms and spans.

    One instance aggregates a session's probes; it is not shared
    across processes (``multiprocessing`` workers each see their own
    backend, and only parent-side probes reach a session snapshot).
    """

    #: Hot loops guard per-item probes with ``if tel.enabled:``.
    enabled: bool = True

    #: Deferred events are folded into counters once the buffer holds
    #: this many — bounds memory while keeping the drain burst out of
    #: any realistically-sized scoring sweep.
    DEFER_LIMIT: int = 65536

    def __init__(self, clock: Clock = now) -> None:
        self.clock: Clock = clock
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._deferred: List[Tuple[Callable[["Telemetry", Any], None], Any]] = []

    # --- recording ----------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter called ``name``."""
        counters = self._counters
        counters[name] = counters.get(name, 0) + amount

    def incr_many(self, items: List[Tuple[str, int]]) -> None:
        """Bulk :meth:`incr` — one dispatch for a whole probe group.

        Per-parse probe sites emit several counters at once; paying a
        single method call keeps the enabled-backend overhead inside
        the <5% budget (DESIGN.md §9).
        """
        counters = self._counters
        for name, amount in items:
            counters[name] = counters.get(name, 0) + amount

    def observe(self, name: str, value: float, times: int = 1) -> None:
        """Record ``value`` (``times`` times) into histogram ``name``."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram()
        histogram.observe(value, times)

    def timer(self, name: str) -> Span:
        """A span whose elapsed seconds land in histogram ``name``."""
        return Span(self, name)

    def defer(self, handler: Callable[["Telemetry", Any], None],
              event: Any) -> None:
        """Buffer ``event`` for aggregation at first read.

        The hot path pays one append; ``handler(self, event)`` runs
        when a reader drains the buffer (or when it reaches
        ``DEFER_LIMIT``).  This is how per-parse probes stay inside
        the <5% enabled-overhead budget: recording is an O(1) buffer
        push, aggregation happens at report time.
        """
        deferred = self._deferred
        deferred.append((handler, event))
        if len(deferred) >= self.DEFER_LIMIT:
            self._drain()

    def _drain(self) -> None:
        """Fold every buffered event into counters/histograms."""
        while self._deferred:
            drained = self._deferred
            self._deferred = []
            for handler, event in drained:
                handler(self, event)

    # --- reading ------------------------------------------------------

    def counter(self, name: str) -> int:
        """The counter's current value (0 when never incremented)."""
        self._drain()
        return self._counters.get(name, 0)

    def histogram(self, name: str) -> Optional[Histogram]:
        self._drain()
        return self._histograms.get(name)

    def counters(self) -> Dict[str, int]:
        """A copy of every counter, sorted by probe name."""
        self._drain()
        return dict(sorted(self._counters.items()))

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of everything recorded so far."""
        self._drain()
        return {
            "enabled": self.enabled,
            "counters": self.counters(),
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Drop every recorded value (the backend stays installed)."""
        self._counters.clear()
        self._histograms.clear()
        self._deferred.clear()


class _NoopSpan:
    """The shared do-nothing span handed out by the no-op backend."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        traceback: Optional[TracebackType],
    ) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class NoopTelemetry(Telemetry):
    """The zero-overhead default backend: every probe is a no-op.

    ``enabled`` is False, so guarded hot-loop probes reduce to one
    attribute check; unguarded probes reduce to an empty method call.
    ``timer`` returns a shared span object, so ``with tel.timer(...)``
    allocates nothing.
    """

    enabled = False

    def incr(self, name: str, amount: int = 1) -> None:
        pass

    def incr_many(self, items: List[Tuple[str, int]]) -> None:
        pass

    def defer(self, handler: Callable[[Telemetry, Any], None],
              event: Any) -> None:
        pass

    def observe(self, name: str, value: float, times: int = 1) -> None:
        pass

    def timer(self, name: str) -> Span:
        return _NOOP_SPAN  # type: ignore[return-value]
