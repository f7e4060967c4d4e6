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

from array import array

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repro.core import meter as meter_module  # noqa: E402
from repro.core.frozen import FrozenGrammar, freeze  # noqa: E402
from repro.core.meter import FuzzyPSM, FuzzyPSMConfig  # noqa: E402
from repro.meters.keepsm import KeePSMMeter  # noqa: E402
from repro.meters.nist import NISTMeter  # noqa: E402
from repro import obs  # noqa: E402

from tests.conftest import BASE_DICTIONARY, TRAINING_PASSWORDS  # noqa: E402
from tests.test_differential_parsing import (  # noqa: E402
    PASSWORDS,
    leet_dense,
)

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
        parsed = _METER.parse(password)
        exact = _METER.grammar.derivation_probability(parsed.to_derivation())
        fast = _METER.frozen_grammar().derivation_probability(parsed.flat)
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
        parsed = meter.parse("brandnewpassword7")
        assert fresh.derivation_probability(parsed.flat) == \
            meter.grammar.derivation_probability(parsed.to_derivation())

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


#: Letters that start no base-dictionary word, so a run of them parses
#: as one segment of exactly its own length.
_PLAIN = "bcfghjkvxz"


@st.composite
def refresh_password(draw) -> str:
    """1-3 chunks, each a transformed dictionary word (leet, capitalized,
    with suffixes), a plain letter run or a digit run, kept as drawn,
    all-capsed or reversed — every rule the refresh must carry."""
    chunks = []
    for _ in range(draw(st.integers(1, 3))):
        chunk = draw(st.one_of(
            leet_dense(),
            st.text(_PLAIN, min_size=1, max_size=12),
            st.text("0123456789", min_size=1, max_size=8),
        ))
        shape = draw(st.sampled_from(("as drawn", "all caps", "reversed")))
        if shape == "all caps":
            chunk = chunk.upper()
        elif shape == "reversed":
            chunk = chunk[::-1]
        chunks.append(chunk)
    return "".join(chunks)


_REFRESH_CONFIG = FuzzyPSMConfig(allow_reverse=True, allow_allcaps=True)

#: Every kind of update the refresh handles differently.
_UPDATE_KINDS = frozenset({
    "new structure", "new length", "new base at existing length",
    "repeated base", "count > 1",
})


def _table_bytes(frozen):
    """``to_tables()`` with every column as comparable bytes."""
    meta, sections = frozen.to_tables()
    return meta, {
        name: column.tobytes() if isinstance(column, array) else column
        for name, column in sections.items()
    }


def _update_kinds(grammar, derivation, count):
    """Which kinds of update folding ``derivation`` into ``grammar`` is."""
    kinds = set()
    if derivation.structure not in grammar.structures:
        kinds.add("new structure")
    for segment in derivation.segments:
        table = grammar.terminals.get(segment.length)
        if table is None:
            kinds.add("new length")
        elif segment.base in table:
            kinds.add("repeated base")
        else:
            kinds.add("new base at existing length")
    if count > 1:
        kinds.add("count > 1")
    return kinds


def _fresh_base(grammar, length):
    """A plain-letter base of ``length`` that ``grammar`` has not seen."""
    table = grammar.terminals[length]
    for first in _PLAIN:
        for second in _PLAIN:
            base = (first + second * length)[:length]
            if base not in table:
                return base
    raise AssertionError(f"no unseen base of length {length}")


def _replay_updates(corpus, updates):
    """Apply ``updates`` one by one, checking each refreshed snapshot.

    After every update the meter's refreshed snapshot must equal a full
    build column for column and score every probe bit-identically to
    the dict kernel, while every earlier snapshot keeps its bytes and
    its epoch's scores.  Three updates of guaranteed kinds follow the
    given ones: a corpus password with ``count`` 2, an unseen base at
    the longest seen length, and a plain-letter run one longer than
    that.  Returns the set of update kinds applied.
    """
    meter = FuzzyPSM.train(BASE_DICTIONARY, corpus, _REFRESH_CONFIG)
    grammar = meter.grammar
    probes = list(dict.fromkeys(
        [*corpus, *(password for password, _ in updates),
         *TRAINING_PASSWORDS]
    ))
    parses = {password: meter.parse(password) for password in probes}
    history = []
    kinds = set()

    def remember(frozen):
        scores = [frozen.derivation_probability(parses[password].flat)
                  for password in probes]
        history.append((frozen, _table_bytes(frozen), scores))

    def apply(password, count):
        parsed = parses.setdefault(password, meter.parse(password))
        derivation = parsed.to_derivation()
        if password not in probes:
            probes.append(password)
        kinds.update(_update_kinds(grammar, derivation, count))
        meter.update(password, count)
        refreshed = meter.frozen_grammar()
        full_meta, full = _table_bytes(FrozenGrammar(grammar))
        meta, sections = _table_bytes(refreshed)
        assert meta == full_meta
        assert sections.keys() == full.keys()
        for name, column in full.items():
            assert sections[name] == column, name
        for password in probes:
            assert refreshed.derivation_probability(parses[password].flat) \
                == grammar.derivation_probability(
                    parses[password].to_derivation()
                )
        for frozen, table_bytes, scores in history:
            assert _table_bytes(frozen) == table_bytes
            assert [frozen.derivation_probability(parses[password].flat)
                    for password in probes[:len(scores)]] == scores
        remember(refreshed)

    remember(meter.frozen_grammar())
    for password, count in updates:
        apply(password, count)
    longest = max(grammar.terminals)
    apply(corpus[0], 2)
    apply(_fresh_base(grammar, longest), 1)
    apply(_PLAIN[0] * (longest + 1), 1)
    return kinds


class TestFrozenRefresh:
    """A snapshot refreshed after an update equals a full build."""

    @given(
        corpus=st.lists(refresh_password(), min_size=1, max_size=10),
        updates=st.lists(
            st.tuples(refresh_password(), st.integers(1, 3)), max_size=6
        ),
    )
    @example(
        corpus=TRAINING_PASSWORDS,
        updates=[("password", 1), ("Dr@gon99", 3), ("zebra42!", 1),
                 ("drowssap", 2), ("PASSWORD!!", 1)],
    )
    @DETERMINISTIC
    def test_refresh_equals_full_build_and_keeps_old_epochs(
        self, corpus, updates
    ):
        assert _replay_updates(corpus, updates) == _UPDATE_KINDS

    def test_refresh_rebuilds_only_the_updated_length(self):
        meter = FuzzyPSM.train(BASE_DICTIONARY, TRAINING_PASSWORDS)
        stale = meter.frozen_grammar()
        # "password" parses to one segment whose length (8) and base the
        # grammar already has: only that length's probabilities change.
        assert [segment.length for segment in
                meter.parse("password").to_derivation().segments] == [8]
        with obs.session() as telemetry:
            meter.update("password")
            fresh = meter.frozen_grammar()
            counters = telemetry.snapshot()["counters"]
        assert counters["meter.frozen.builds"] == 1
        assert counters["meter.frozen.tables.rebuilt"] == 1
        assert counters["meter.frozen.tables.reused"] == \
            len(meter.grammar.terminals) - 1
        for length in stale.terminal_lengths():
            if length != 8:
                assert fresh.terminal_table(length) is \
                    stale.terminal_table(length), length
        index, probabilities, runs = fresh.terminal_table(8)
        stale_index, stale_probabilities, stale_runs = \
            stale.terminal_table(8)
        # Same support: the index and runs are shared, the probability
        # column is new.
        assert index is stale_index and runs is stale_runs
        assert probabilities is not stale_probabilities

    def test_attached_snapshot_seeds_a_full_build(self):
        meter = FuzzyPSM.train(BASE_DICTIONARY, TRAINING_PASSWORDS)
        attached = FrozenGrammar.from_tables(
            *meter.frozen_grammar().to_tables()
        )
        meter.update("zebra42!")
        with obs.session() as telemetry:
            rebuilt = FrozenGrammar(meter.grammar, attached)
            counters = telemetry.snapshot()["counters"]
        assert counters["meter.frozen.tables.reused"] == 0
        assert counters["meter.frozen.tables.rebuilt"] == \
            len(meter.grammar.terminals)
        assert _table_bytes(rebuilt) == \
            _table_bytes(FrozenGrammar(meter.grammar))


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
