"""Differential tests for the windowed training engine.

The engine (one parse per distinct password per window, one batch
count and fold per window) must be an *execution-strategy* change
only: whether a corpus arrives as one in-memory list
(``train_grammar``) or as a stream of chunks
(``train_grammar_streaming``), and whatever the window size, the
grammar must serialise to the very same bytes as the reference pass
of ``tests/training_oracle.py`` (one ``FuzzyGrammar.observe`` per
entry), because model files are compared byte-for-byte across
versions (``test_persistence.TestDeterministicBytes``) and the count
tables' insertion order is part of that contract.
"""

from __future__ import annotations

import json
import string

import pytest
from hypothesis import given, settings, strategies as st

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
from tests.training_oracle import train_reference


@pytest.fixture(scope="module")
def trie():
    return build_base_trie(BASE_DICTIONARY)


@pytest.fixture(scope="module")
def parsers(trie):
    """Default flags, and the reverse and all-caps rules on."""
    return (FuzzyParser(trie),
            FuzzyParser(trie, allow_reverse=True, allow_allcaps=True))


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
        serial = train_reference(pws, trie)
        streamed = train_grammar_streaming(chunked(pws, chunk_size), trie)
        assert canonical(streamed) == canonical(serial)

    @given(st.lists(st.tuples(
        st.text(alphabet=string.ascii_lowercase + "01!",
                min_size=1, max_size=10),
        counts,
    ), min_size=1, max_size=30))
    @settings(max_examples=25, deadline=None)
    def test_counted_entries_survive_chunking(self, trie, entries):
        serial = train_reference(entries, trie)
        streamed = train_grammar_streaming(chunked(entries, 3), trie)
        assert canonical(streamed) == canonical(serial)

    def test_empty_stream(self, trie):
        assert train_grammar_streaming(iter([]), trie) == FuzzyGrammar()
        assert train_grammar([], trie) == FuzzyGrammar()

    def test_empty_passwords_skipped_across_chunks(self, trie):
        entries = ["password1", "", "dragon99", ""]
        assert canonical(
            train_grammar_streaming(chunked(entries, 2), trie)
        ) == canonical(train_reference(entries, trie))

    def test_empty_password_raises_without_skip(self, trie):
        with pytest.raises(ValueError, match="empty"):
            train_grammar_streaming(
                chunked(["password1", ""], 1), trie, skip_empty=False
            )


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


class TestWindowedEngine:
    """Every window size, chunking and entry point equals the
    reference pass."""

    @given(corpora(), windows, chunk_sizes)
    @DIFFERENTIAL
    def test_serial_equals_reference(self, trie, parsers, entries, window,
                                     size):
        for parser in parsers:
            reference = canonical(train_reference(entries, trie, parser))
            streamed = train_grammar_streaming(
                chunked(entries, size), trie, parser, window=window
            )
            in_memory = train_grammar(entries, trie, parser, window=window)
            assert canonical(streamed) == reference
            assert canonical(in_memory) == reference

    @given(corpora(), windows, chunk_sizes)
    @DIFFERENTIAL
    def test_table_never_exceeds_the_bound(self, entries, window, size):
        feed = training._Window(chunked(entries, size), True, window)
        tables = list(feed)
        assert all(len(table) <= window for table in tables)
        assert feed.distinct == sum(map(len, tables))
        assert feed.entries == sum(1 for entry in entries if entry != "")

    @given(corpora(), st.sampled_from([-2, -1, 0, 1.5, True]),
           st.booleans(), windows, chunk_sizes)
    @settings(DIFFERENTIAL, max_examples=30)
    def test_invalid_entries_raise_the_reference_error(
        self, trie, entries, count, empty, window, size
    ):
        bad = ("", 1) if empty else ("password1", count)
        entries = entries + [bad] + entries
        with pytest.raises(ValueError) as expected:
            train_reference(entries, trie, skip_empty=False)
        with pytest.raises(ValueError) as raised:
            train_grammar_streaming(
                chunked(entries, size), trie, skip_empty=False,
                window=window,
            )
        assert str(raised.value) == str(expected.value)
        with pytest.raises(ValueError) as raised:
            train_grammar(entries, trie, skip_empty=False, window=window)
        assert str(raised.value) == str(expected.value)


class TestMeterEntryPoint:
    def test_train_streaming_equals_train(self):
        entries = TRAINING_PASSWORDS + [("trendpw99", 5)]
        in_memory = FuzzyPSM.train(BASE_DICTIONARY, entries)
        streamed = FuzzyPSM.train_streaming(
            BASE_DICTIONARY, chunked(entries, 3)
        )
        trie = build_base_trie(BASE_DICTIONARY)
        reference = FuzzyPSM(train_reference(entries, trie), trie)
        assert json.dumps(streamed.to_dict()) == json.dumps(
            reference.to_dict()
        )
        assert json.dumps(in_memory.to_dict()) == json.dumps(
            reference.to_dict()
        )

    def test_streamed_meter_scores_and_updates(self):
        meter = FuzzyPSM.train_streaming(
            BASE_DICTIONARY, chunked(TRAINING_PASSWORDS, 5)
        )
        before = meter.probability("brandnew99")
        meter.update("brandnew99", count=5)
        assert meter.probability("brandnew99") > before
