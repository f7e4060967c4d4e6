"""The telemetry primitives: histograms, spans, backend selection.

Nothing here touches the wall clock — spans run against an injected
fake clock, and histogram assertions target the fixed log-spaced
bucket boundaries, which are class-level constants.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.core import (
    Histogram,
    NoopTelemetry,
    Telemetry,
    log_spaced_bounds,
)


class FakeClock:
    """A manually-advanced clock for span tests."""

    def __init__(self) -> None:
        self.time = 0.0

    def __call__(self) -> float:
        return self.time

    def advance(self, seconds: float) -> None:
        self.time += seconds


class TestLogSpacedBounds:
    def test_decade_steps(self):
        bounds = log_spaced_bounds(1e-3, steps_per_decade=1, decades=3)
        assert [round(b, 9) for b in bounds] == [1e-3, 1e-2, 1e-1]

    def test_default_bounds_are_strictly_increasing(self):
        bounds = Histogram.BOUNDS
        assert len(bounds) == 36  # 9 decades x 4 buckets
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_default_bounds_span_microseconds_to_minutes(self):
        assert Histogram.BOUNDS[0] == pytest.approx(1e-6)
        assert Histogram.BOUNDS[-1] > 100.0


class TestHistogram:
    def test_moments(self):
        histogram = Histogram()
        for value in (0.001, 0.002, 0.004):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == pytest.approx(0.007)
        assert histogram.mean == pytest.approx(0.007 / 3)
        assert histogram.minimum == 0.001
        assert histogram.maximum == 0.004

    def test_bucket_placement_is_deterministic(self):
        histogram = Histogram()
        assert histogram.bucket_index(0.0) == 0          # underflow
        assert histogram.bucket_index(1e9) == len(histogram.BOUNDS)
        # Same value, same bucket — always: the boundaries are frozen.
        assert histogram.bucket_index(0.0042) == Histogram().bucket_index(
            0.0042
        )

    def test_values_a_decade_apart_occupy_distinct_buckets(self):
        histogram = Histogram()
        histogram.observe(0.001)
        histogram.observe(0.001)
        histogram.observe(0.01)
        occupied = histogram.nonzero_buckets()
        assert [count for _, count in occupied] == [2, 1]

    def test_overflow_bucket_reports_no_upper_bound(self):
        histogram = Histogram()
        histogram.observe(1e9)
        (bound, count), = histogram.nonzero_buckets()
        assert bound is None
        assert count == 1

    def test_snapshot_shape(self):
        histogram = Histogram()
        histogram.observe(0.5)
        snap = histogram.snapshot()
        assert snap["count"] == 1
        assert snap["sum"] == 0.5
        assert snap["min"] == snap["max"] == 0.5
        assert snap["buckets"] == [
            {"le": histogram.BOUNDS[histogram.bucket_index(0.5)],
             "count": 1}
        ]

    def test_empty_snapshot(self):
        snap = Histogram().snapshot()
        assert snap == {
            "count": 0, "sum": 0.0, "min": None, "max": None,
            "mean": 0.0, "buckets": [],
        }


class TestSpan:
    def test_timer_observes_elapsed_seconds(self):
        clock = FakeClock()
        telemetry = Telemetry(clock=clock)
        with telemetry.timer("stage.seconds"):
            clock.advance(0.25)
        histogram = telemetry.histogram("stage.seconds")
        assert histogram is not None
        assert histogram.count == 1
        assert histogram.total == 0.25

    def test_failed_stage_is_still_recorded(self):
        clock = FakeClock()
        telemetry = Telemetry(clock=clock)
        with pytest.raises(RuntimeError):
            with telemetry.timer("stage.seconds"):
                clock.advance(1.5)
                raise RuntimeError("stage blew up")
        histogram = telemetry.histogram("stage.seconds")
        assert histogram is not None
        assert histogram.total == 1.5

    def test_repeated_spans_share_one_histogram(self):
        clock = FakeClock()
        telemetry = Telemetry(clock=clock)
        for elapsed in (0.1, 0.2, 0.3):
            with telemetry.timer("stage.seconds"):
                clock.advance(elapsed)
        histogram = telemetry.histogram("stage.seconds")
        assert histogram is not None
        assert histogram.count == 3
        assert histogram.total == pytest.approx(0.6)


class TestTelemetry:
    def test_counters(self):
        telemetry = Telemetry()
        telemetry.incr("a")
        telemetry.incr("a", 4)
        telemetry.incr("b", 0)
        assert telemetry.counter("a") == 5
        assert telemetry.counter("b") == 0
        assert telemetry.counter("never") == 0
        assert telemetry.counters() == {"a": 5, "b": 0}

    def test_incr_many_matches_repeated_incr(self):
        bulk, looped = Telemetry(), Telemetry()
        items = [("a", 2), ("b", 1), ("a", 3)]
        bulk.incr_many(items)
        for name, amount in items:
            looped.incr(name, amount)
        assert bulk.counters() == looped.counters() == {"a": 5, "b": 1}

    def test_snapshot_is_json_ready(self):
        telemetry = Telemetry(clock=FakeClock())
        telemetry.incr("hits", 3)
        telemetry.observe("batch.size", 10.0)
        snap = telemetry.snapshot()
        assert snap["enabled"] is True
        assert snap["counters"] == {"hits": 3}
        assert snap["histograms"]["batch.size"]["count"] == 1

    def test_reset_keeps_the_backend(self):
        telemetry = Telemetry()
        telemetry.incr("hits")
        telemetry.observe("batch.size", 1.0)
        telemetry.reset()
        assert telemetry.counters() == {}
        assert telemetry.histogram("batch.size") is None
        assert telemetry.enabled


class TestNoopTelemetry:
    def test_records_nothing(self):
        noop = NoopTelemetry()
        noop.incr("hits", 10)
        noop.incr_many([("hits", 3), ("misses", 1)])
        noop.observe("batch.size", 5.0)
        with noop.timer("stage.seconds"):
            pass
        snap = noop.snapshot()
        assert snap["enabled"] is False
        assert snap["counters"] == {}
        assert snap["histograms"] == {}

    def test_enabled_is_false(self):
        assert NoopTelemetry().enabled is False

    def test_timer_returns_the_shared_span(self):
        noop = NoopTelemetry()
        # The hot path writes ``with tel.timer(...)`` unconditionally;
        # zero overhead requires the no-op span to be allocation-free.
        assert noop.timer("a") is noop.timer("b")


class TestBackendSelection:
    @pytest.fixture(autouse=True)
    def _restore_backend(self, monkeypatch):
        # These tests flip the process-wide backend; pin the original
        # so a failure cannot leak a collecting backend into the suite.
        monkeypatch.setattr(obs, "_ACTIVE", obs.get())

    def test_enable_and_disable(self):
        installed = obs.enable()
        assert obs.get() is installed
        assert installed.enabled
        obs.disable()
        assert not obs.get().enabled

    def test_enable_accepts_a_custom_backend(self):
        custom = Telemetry(clock=FakeClock())
        assert obs.enable(custom) is custom
        assert obs.get() is custom

    def test_session_installs_and_restores(self):
        before = obs.get()
        with obs.session() as telemetry:
            assert obs.get() is telemetry
            assert telemetry is not before
        assert obs.get() is before

    def test_session_restores_on_exception(self):
        before = obs.get()
        with pytest.raises(RuntimeError):
            with obs.session():
                raise RuntimeError("workload failed")
        assert obs.get() is before

    def test_sessions_nest_without_leaking(self):
        with obs.session() as outer:
            outer.incr("outer")
            with obs.session() as inner:
                inner.incr("inner")
                assert obs.get() is inner
            assert obs.get() is outer
        assert outer.counters() == {"outer": 1}
        assert "outer" not in inner.counters()

    def test_session_accepts_a_clock(self):
        clock = FakeClock()
        with obs.session(clock=clock) as telemetry:
            with telemetry.timer("stage.seconds"):
                clock.advance(2.0)
        histogram = telemetry.histogram("stage.seconds")
        assert histogram is not None
        assert histogram.total == 2.0


class TestEnvironmentSelection:
    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_truthy_values_enable_collection(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", value)
        assert obs._backend_from_environment().enabled

    @pytest.mark.parametrize("value", ["", "0", "false", "off", "nope"])
    def test_other_values_stay_noop(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", value)
        assert not obs._backend_from_environment().enabled

    def test_unset_stays_noop(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert not obs._backend_from_environment().enabled
