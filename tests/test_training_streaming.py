"""Differential tests for the streaming/parallel training engine.

``train_grammar_streaming`` must be an *execution-strategy* change
only: whatever route a corpus takes — in-memory serial (the reference
pass, one ``FuzzyGrammar.observe`` per entry), streamed chunked serial
(one batch count and fold per window), or streamed through the
persistent worker pool (slices counted in the workers, folded in
submission order) — the resulting grammar must serialise to the very
same bytes, because model files are compared byte-for-byte across PRs
(``test_persistence.TestDeterministicBytes``) and the count tables'
insertion order is part of that contract.
"""

from __future__ import annotations

import json
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core import training
from repro.core.grammar import FuzzyGrammar
from repro.core.meter import FuzzyPSM
from repro.core.parser import FuzzyParser
from repro.core.training import (
    DEFAULT_TRAIN_WINDOW,
    build_base_trie,
    train_grammar,
    train_grammar_streaming,
)

from tests.conftest import BASE_DICTIONARY, TRAINING_PASSWORDS


@pytest.fixture(scope="module")
def trie():
    return build_base_trie(BASE_DICTIONARY)


@pytest.fixture(scope="module")
def parsers(trie):
    """Default flags, and the reverse and all-caps rules on."""
    return (FuzzyParser(trie),
            FuzzyParser(trie, allow_reverse=True, allow_allcaps=True))


@pytest.fixture(scope="module")
def multicore():
    """Pretend the host has two cores: the CPU clamp must not silently
    reroute the pool-differential tests below through the serial path
    on a single-core CI machine.  (Module-scoped by hand because
    ``monkeypatch`` is function-scoped, which hypothesis rejects.)"""
    original = training._available_cpus
    training._available_cpus = lambda: 2
    yield
    training._available_cpus = original


def canonical(grammar: FuzzyGrammar) -> str:
    """The byte-identity probe: serialised JSON, insertion order kept."""
    return json.dumps(grammar.to_dict())


def chunked(entries, size):
    for start in range(0, len(entries), size):
        yield entries[start:start + size]


passwords = st.lists(
    st.text(
        alphabet=string.ascii_letters + string.digits + "!@#$%",
        min_size=1, max_size=12,
    ),
    min_size=1, max_size=40,
)
counts = st.integers(min_value=1, max_value=5)


class TestStreamedSerialEqualsInMemory:
    @given(passwords, st.integers(min_value=1, max_value=7))
    @settings(max_examples=25, deadline=None)
    def test_chunking_is_invisible(self, trie, pws, chunk_size):
        serial = train_grammar(pws, trie)
        streamed = train_grammar_streaming(chunked(pws, chunk_size), trie)
        assert canonical(streamed) == canonical(serial)

    @given(st.lists(st.tuples(
        st.text(alphabet=string.ascii_lowercase + "01!",
                min_size=1, max_size=10),
        counts,
    ), min_size=1, max_size=30))
    @settings(max_examples=25, deadline=None)
    def test_counted_entries_survive_chunking(self, trie, entries):
        serial = train_grammar(entries, trie)
        streamed = train_grammar_streaming(chunked(entries, 3), trie)
        assert canonical(streamed) == canonical(serial)

    def test_empty_stream(self, trie):
        assert train_grammar_streaming(iter([]), trie) == FuzzyGrammar()

    def test_empty_passwords_skipped_across_chunks(self, trie):
        entries = ["password1", "", "dragon99", ""]
        assert canonical(
            train_grammar_streaming(chunked(entries, 2), trie)
        ) == canonical(train_grammar(entries, trie))

    def test_empty_password_raises_without_skip(self, trie):
        with pytest.raises(ValueError, match="empty"):
            train_grammar_streaming(
                chunked(["password1", ""], 1), trie, skip_empty=False
            )


@pytest.mark.usefixtures("multicore")
class TestParallelEqualsSerial:
    """The worker pool must reproduce the serial bytes exactly."""

    def _both(self, trie, entries, chunk_size=4):
        serial = train_grammar(entries, trie)
        parallel = train_grammar_streaming(
            chunked(entries, chunk_size), trie,
            jobs=2, parallel_threshold=0,
        )
        return canonical(serial), canonical(parallel)

    def test_fixed_corpus(self, trie):
        entries = TRAINING_PASSWORDS + [
            ("password1", 7), ("Dr@gon99", 3), ("PASSWORD1", 2),
            ("1drowssap", 1), ("p@ssw0rd!", 4),
        ]
        serial, parallel = self._both(trie, entries)
        assert parallel == serial

    def test_duplicates_across_chunks(self, trie):
        # The same password in different chunks lands in different
        # slices' counts; fold order must still reproduce serial counts.
        entries = ["monkey12", "dragon99", "monkey12", "monkey12",
                   "dragon99", "shadow7!"] * 4
        serial, parallel = self._both(trie, entries, chunk_size=3)
        assert parallel == serial

    @given(passwords)
    @settings(max_examples=8, deadline=None)
    def test_random_corpora(self, trie, pws):
        serial, parallel = self._both(trie, pws)
        assert parallel == serial

    def test_in_memory_parallel_matches_too(self, trie):
        entries = TRAINING_PASSWORDS * 3
        serial = train_grammar(entries, trie)
        parallel = train_grammar(entries, trie, jobs=2,
                                 parallel_threshold=0)
        assert canonical(parallel) == canonical(serial)


#: Passwords on which the reverse and all-caps rules fire (with the
#: ``parsers`` fixture's second parser): ``password`` and ``dragon``
#: reversed, in capitals, and in capitals with a leet toggle.
RULE_WORDS = ("1drowssap", "nogard", "PASSWORD1", "PASSW0RD")


@st.composite
def corpora(draw):
    """Entries with repeats: plain passwords, counted pairs, empties.

    Every password of the pool, :data:`RULE_WORDS` included, occurs in
    a shuffled first-seen order, so small windows fill with passwords
    that are not in sorted order.
    """
    pool = draw(st.lists(
        st.text(alphabet=string.ascii_lowercase + "01!@",
                min_size=1, max_size=10),
        min_size=1, max_size=8, unique=True,
    ))
    pool += [word for word in RULE_WORDS if word not in pool]
    entry = st.one_of(
        st.sampled_from(pool),
        st.tuples(st.sampled_from(pool), counts),
        st.just(""),
    )
    repeats = draw(st.lists(entry, max_size=50))
    return draw(st.permutations(pool + repeats))


windows = st.sampled_from([1, 2, 3, DEFAULT_TRAIN_WINDOW])
chunk_sizes = st.integers(min_value=1, max_value=50)
DIFFERENTIAL = settings(derandomize=True, deadline=None)


@pytest.mark.usefixtures("multicore")
class TestWindowedEngine:
    """Every window size, chunking and route equals the reference pass."""

    @given(corpora(), windows, chunk_sizes)
    @DIFFERENTIAL
    def test_serial_equals_reference(self, trie, parsers, entries, window,
                                     size):
        for parser in parsers:
            reference = canonical(train_grammar(entries, trie, parser))
            streamed = train_grammar_streaming(
                chunked(entries, size), trie, parser, window=window
            )
            assert canonical(streamed) == reference

    @given(corpora(), windows, chunk_sizes)
    @settings(DIFFERENTIAL, max_examples=8)
    def test_pool_equals_reference(self, trie, parsers, entries, window,
                                   size):
        for parser in parsers:
            reference = canonical(train_grammar(entries, trie, parser))
            pooled = train_grammar_streaming(
                chunked(entries, size), trie, parser, jobs=2,
                parallel_threshold=0, window=window,
            )
            assert canonical(pooled) == reference

    @given(corpora(), windows, chunk_sizes)
    @DIFFERENTIAL
    def test_table_never_exceeds_the_bound(self, entries, window, size):
        feed = training._Window(chunked(entries, size), True, window)
        tables = list(feed)
        assert all(len(table) <= window for table in tables)
        assert feed.distinct == sum(map(len, tables))
        assert feed.entries == sum(1 for entry in entries if entry != "")

    @given(corpora(), st.sampled_from([-2, -1, 0, 1.5, True]),
           st.booleans(), windows, chunk_sizes, st.sampled_from([1, 2]))
    @settings(DIFFERENTIAL, max_examples=30)
    def test_invalid_entries_raise_the_reference_error(
        self, trie, entries, count, empty, window, size, jobs
    ):
        bad = ("", 1) if empty else ("password1", count)
        entries = entries + [bad] + entries
        with pytest.raises(ValueError) as expected:
            train_grammar(entries, trie, skip_empty=False)
        with pytest.raises(ValueError) as raised:
            train_grammar_streaming(
                chunked(entries, size), trie, skip_empty=False,
                jobs=jobs, parallel_threshold=0, window=window,
            )
        assert str(raised.value) == str(expected.value)


class TestStreamingFallback:
    def test_small_stream_falls_back_to_serial(self, trie, monkeypatch):
        def boom(*_args, **_kwargs):
            raise AssertionError("pool started below the threshold")

        monkeypatch.setattr(training, "_available_cpus", lambda: 2)
        monkeypatch.setattr(training, "_train_streaming_parallel", boom)
        with obs.session() as telemetry:
            grammar = train_grammar_streaming(
                chunked(TRAINING_PASSWORDS, 4), trie, jobs=2
            )
            counters = telemetry.snapshot()["counters"]
        assert grammar == train_grammar(TRAINING_PASSWORDS, trie)
        assert counters["train.fallback.serial"] == 1
        assert counters["training.parallel.fallback"] == 1

    def test_in_memory_fallback_shares_the_counter(self, trie):
        with obs.session() as telemetry:
            train_grammar(TRAINING_PASSWORDS, trie, jobs=2)
            counters = telemetry.snapshot()["counters"]
        assert counters["training.parallel.fallback"] == 1

    def test_negative_jobs_rejected(self, trie):
        with pytest.raises(ValueError, match="non-negative"):
            train_grammar_streaming(iter([]), trie, jobs=-1)


class TestMeterEntryPoint:
    def test_train_streaming_equals_train(self):
        entries = TRAINING_PASSWORDS + [("trendpw99", 5)]
        in_memory = FuzzyPSM.train(BASE_DICTIONARY, entries)
        streamed = FuzzyPSM.train_streaming(
            BASE_DICTIONARY, chunked(entries, 3)
        )
        assert json.dumps(streamed.to_dict()) == json.dumps(
            in_memory.to_dict()
        )

    def test_streamed_meter_scores_and_updates(self):
        meter = FuzzyPSM.train_streaming(
            BASE_DICTIONARY, chunked(TRAINING_PASSWORDS, 5)
        )
        before = meter.probability("brandnew99")
        meter.update("brandnew99", count=5)
        assert meter.probability("brandnew99") > before
