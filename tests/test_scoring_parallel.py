"""Differential tests for the two-layer scoring engine (ISSUE 5).

Layer 1 is the :class:`~repro.core.frozen.FrozenGrammar` kernel: a
compiled snapshot of the fuzzy grammar's count tables that must score
every derivation **bit-identically** to
:meth:`FuzzyGrammar.derivation_probability` — it is an execution
strategy, not a model change.  Layer 2 is process-parallel
``probability_many(jobs=N)``, which must reassemble worker results
into exactly the serial answer.

As in :mod:`tests.test_differential_parsing`, the fast paths are pit
against their references on generated inputs with
``derandomize=True``, so failures replay identically everywhere.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core import meter as meter_module  # noqa: E402
from repro.core.frozen import FrozenGrammar, freeze  # noqa: E402
from repro.core.meter import FuzzyPSM  # noqa: E402
from repro.meters.keepsm import KeePSMMeter  # noqa: E402
from repro.meters.nist import NISTMeter  # noqa: E402
from repro import obs  # noqa: E402

from tests.conftest import BASE_DICTIONARY, TRAINING_PASSWORDS  # noqa: E402
from tests.test_differential_parsing import PASSWORDS  # noqa: E402

DETERMINISTIC = settings(max_examples=150, deadline=None,
                         derandomize=True)

_METER = FuzzyPSM.train(BASE_DICTIONARY, TRAINING_PASSWORDS)

#: A fixed stream with duplicates, the empty string, transformed and
#: unparseable passwords — the shapes the engine special-cases.
FIXED_STREAM = [
    "password1", "password1", "Dr@gon99", "", "xyz123",
    "P@ssword", "dragon", "DRAGON99", "nogard", "password1",
    "monkey!", "m0nkey", "qqqqqq", "love2016", "evol",
] * 4


class TestFrozenKernel:
    @given(password=PASSWORDS)
    @DETERMINISTIC
    def test_bit_identical_to_dict_kernel(self, password):
        derivation = _METER.parse(password).to_derivation()
        exact = _METER.grammar.derivation_probability(derivation)
        fast = _METER.frozen_grammar().derivation_probability(derivation)
        # Bitwise equality, not isclose: the frozen kernel replays the
        # reference multiplication order factor for factor.
        assert fast == exact

    @given(password=PASSWORDS)
    @DETERMINISTIC
    def test_structure_and_terminal_views_agree(self, password):
        derivation = _METER.parse(password).to_derivation()
        frozen = _METER.frozen_grammar()
        grammar = _METER.grammar
        assert frozen.structure_probability(derivation.structure) == \
            grammar.structure_probability(derivation.structure)
        for segment in derivation.segments:
            assert frozen.terminal_probability(segment.base) == \
                grammar.terminal_probability(segment.base)

    def test_snapshot_is_cached_while_grammar_is_unchanged(self):
        meter = FuzzyPSM.train(BASE_DICTIONARY, TRAINING_PASSWORDS)
        first = meter.frozen_grammar()
        assert meter.frozen_grammar() is first
        assert first.is_current(meter.grammar)

    def test_update_invalidates_the_snapshot(self):
        meter = FuzzyPSM.train(BASE_DICTIONARY, TRAINING_PASSWORDS)
        stale = meter.frozen_grammar()
        meter.update("brandnewpassword7")
        assert not stale.is_current(meter.grammar)
        fresh = meter.frozen_grammar()
        assert fresh is not stale
        assert fresh.is_current(meter.grammar)
        derivation = meter.parse("brandnewpassword7").to_derivation()
        assert fresh.derivation_probability(derivation) == \
            meter.grammar.derivation_probability(derivation)

    def test_accept_invalidates_the_snapshot(self):
        meter = FuzzyPSM.train(BASE_DICTIONARY, TRAINING_PASSWORDS)
        stale = meter.frozen_grammar()
        meter.update("password1")
        assert not stale.is_current(meter.grammar)
        assert meter.probability_many(["password1"]) == \
            [meter.probability("password1")]

    def test_freeze_helper_reuses_current_snapshots(self):
        grammar = _METER.grammar
        snapshot = freeze(grammar)
        assert freeze(grammar, stale=snapshot) is snapshot
        rebuilt = freeze(grammar, stale=None)
        assert rebuilt is not snapshot
        assert rebuilt.epoch == snapshot.epoch

    def test_counts_and_repr_reflect_the_tables(self):
        frozen = _METER.frozen_grammar()
        grammar = _METER.grammar
        assert frozen.structure_count == \
            sum(1 for _ in grammar.structures.items())
        assert frozen.terminal_count == sum(
            sum(1 for _ in dist.items())
            for dist in grammar.terminals.values()
        )
        assert "FrozenGrammar" in repr(frozen)


class TestParallelScoring:
    def test_jobs2_equals_serial_equals_per_call(self):
        per_call = [_METER.probability(pw) for pw in FIXED_STREAM]
        serial = _METER.probability_many(FIXED_STREAM)
        parallel = _METER.probability_many(
            FIXED_STREAM, jobs=2, parallel_threshold=1
        )
        assert parallel == serial == per_call

    def test_entropy_many_jobs_equals_per_call(self):
        parallel = _METER.entropy_many(
            FIXED_STREAM, jobs=2, parallel_threshold=1
        )
        assert parallel == [_METER.entropy(pw) for pw in FIXED_STREAM]

    def test_below_threshold_falls_back_to_serial(self):
        with obs.session() as telemetry:
            scores = _METER.probability_many(FIXED_STREAM, jobs=4)
            counters = telemetry.snapshot()["counters"]
        assert scores == [_METER.probability(pw) for pw in FIXED_STREAM]
        # The distinct count is far below PARALLEL_MIN_DISTINCT, so no
        # pool was spun up and the fallback counter recorded why.
        assert counters["meter.parallel.fallback.serial"] == 1
        assert counters["meter.batch.calls"] == 1
        assert "meter.parallel.calls" not in counters

    def test_parallel_records_telemetry(self):
        with obs.session() as telemetry:
            _METER.probability_many(
                FIXED_STREAM, jobs=2, parallel_threshold=1
            )
            counters = telemetry.snapshot()["counters"]
        assert counters["meter.parallel.calls"] == 1
        assert counters["meter.parallel.scores"] == len(FIXED_STREAM)
        assert counters["meter.parallel.distinct"] == \
            len(set(FIXED_STREAM))

    def test_small_distinct_jobs2_is_not_catastrophic(self):
        """Regression: jobs=2 at small distinct counts stays sane.

        Before the snapshot plane (DESIGN.md §16) every pool start-up
        pickled the compiled matchers and frozen grammar into each
        worker, so small batches under ``jobs=2`` could lose to serial
        by orders of magnitude — which is why the old parallel cutoff
        sat at 50k distinct.  Workers now attach to a named shared
        segment, so even a forced-parallel small batch must stay
        within a (generous, absolute) budget of the serial run: the
        bound catches a return of the broadcast tax, not scheduler
        jitter.
        """
        from repro.obs.core import now

        stream = [f"pw{i}x!" for i in range(2_100)]  # just above cutoff
        _METER.probability_many(stream[:1])  # warm caches/snapshot
        start = now()
        serial = _METER.probability_many(stream)
        serial_seconds = now() - start
        start = now()
        parallel = _METER.probability_many(stream, jobs=2)
        parallel_seconds = now() - start
        assert parallel == serial
        assert parallel_seconds <= max(2.0, serial_seconds * 25), (
            f"jobs=2 took {parallel_seconds:.3f}s vs serial "
            f"{serial_seconds:.3f}s on {len(stream)} distinct"
        )

    @given(batch=st.lists(PASSWORDS, max_size=20))
    @DETERMINISTIC
    def test_serial_batch_uses_frozen_kernel_correctly(self, batch):
        # The serial probability_many path scores through the frozen
        # kernel; the per-call path goes through the dict kernel.
        assert _METER.probability_many(batch) == \
            [_METER.probability(pw) for pw in batch]


class TestWorkerFunctions:
    """The pool worker, driven in-process for coverage and precision."""

    def teardown_method(self):
        meter_module._SCORE_PARSER = None
        meter_module._SCORE_FROZEN = None

    def _init_worker(self, meter):
        # The worker initializer only ever sees a segment *name*; the
        # in-process call exercises the same attach + materialize path
        # a pool worker runs (via the shm attach cache).
        meter_module._worker_init_shared(meter.shared_segment().name)

    def test_chunk_scores_match_the_meter(self):
        self._init_worker(_METER)
        chunk = sorted(set(FIXED_STREAM))
        values, seconds = meter_module._score_chunk(chunk)
        assert values == [_METER.probability(pw) for pw in chunk]
        assert seconds >= 0.0

    def test_uninitialised_worker_is_an_error(self):
        with pytest.raises(AssertionError):
            meter_module._score_chunk(["password1"])


class TestRuleMeterBatchOverrides:
    """The exact ``probability_many`` overrides for NIST and KeePSM."""

    NIST = NISTMeter(dictionary=BASE_DICTIONARY)
    KEEPSM = KeePSMMeter()

    @given(batch=st.lists(PASSWORDS, max_size=20))
    @DETERMINISTIC
    def test_nist_batch_equals_per_call(self, batch):
        assert self.NIST.probability_many(batch) == \
            [self.NIST.probability(pw) for pw in batch]

    @given(batch=st.lists(PASSWORDS, max_size=20))
    @DETERMINISTIC
    def test_keepsm_batch_equals_per_call(self, batch):
        assert self.KEEPSM.probability_many(batch) == \
            [self.KEEPSM.probability(pw) for pw in batch]

    def test_duplicates_are_memoised_not_recomputed(self):
        batch = ["password1"] * 5 + ["", "Dr@gon99"] * 3
        for meter in (self.NIST, self.KEEPSM):
            assert meter.probability_many(batch) == \
                [meter.probability(pw) for pw in batch]
