"""Property-based differential tests: every fast path vs its reference.

The performance layer (compiled trie, parse cache, batch scoring) is
contractually an execution-strategy change only.  These tests pit each
fast path against its reference implementation on generated inputs —
unicode text, leet-dense dictionary mashups, lengths 0-64 — and demand
bitwise-identical results.  The compiled trie's reference is the
pointer :class:`PrefixTrie`, walked by the test-side parser
``tests.conftest.pointer_parser``.

``derandomize=True`` pins Hypothesis to its deterministic seed, so a
failure here reproduces identically on every machine and CI run.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repro.core.meter import FuzzyPSM  # noqa: E402
from repro.core.parser import FuzzyParser  # noqa: E402
from repro.core.training import build_base_trie  # noqa: E402
from repro.util.leet import LEET_BY_LETTER  # noqa: E402

from tests.conftest import (  # noqa: E402
    BASE_DICTIONARY,
    TRAINING_PASSWORDS,
    pointer_parser,
    reference_scores,
)

#: A dictionary rich in leet-able letters and shared prefixes, so the
#: longest-prefix-match tie-breaking actually gets exercised.
WORDS = BASE_DICTIONARY + [
    "love", "lovely", "passwords", "admin", "soccer", "starwars",
    "astala", "astalavista",
]

DETERMINISTIC = settings(max_examples=150, deadline=None,
                         derandomize=True)


@st.composite
def leet_dense(draw) -> str:
    """A dictionary word pushed through the paper's transformations."""
    word = draw(st.sampled_from(WORDS))
    chars = []
    for char in word:
        substitute = LEET_BY_LETTER.get(char)
        if substitute is not None and draw(st.booleans()):
            chars.append(substitute)
        else:
            chars.append(char)
    if draw(st.booleans()):
        chars[0] = chars[0].upper()
    suffix = draw(st.sampled_from(["", "1", "123", "!", "2016", "!!"]))
    return "".join(chars) + suffix


@st.composite
def mashup(draw) -> str:
    """1-3 chunks, each a transformed word or arbitrary short text."""
    chunks = draw(st.lists(
        st.one_of(leet_dense(), st.text(max_size=8)),
        min_size=1, max_size=3,
    ))
    return "".join(chunks)[:64]


#: The full input space: arbitrary unicode up to 64 chars (including
#: the empty string), leet-dense words, and concatenated mashups.
PASSWORDS = st.one_of(st.text(max_size=64), leet_dense(), mashup())


def unicode_capitals(test):
    """``@example``s of the six upper-case characters that are not
    :func:`~repro.core.trie.capitalizable`: U+0130 lower-cases to two
    code points, and U+03F4, U+1E9E, U+2126, U+212A and U+212B
    lower-case to a character whose upper case is another one."""
    for password in (
        "\u0130stanbul", "a\u013012", "\u03f4eta1", "x\u1e9e",
        "\u2126password", "\u212aelvin!", "P@ss\u212bword",
    ):
        test = example(password=password)(test)
    return test


def _parser_pair(**flags) -> "tuple[FuzzyParser, FuzzyParser]":
    trie = build_base_trie(WORDS)
    return FuzzyParser(trie, **flags), pointer_parser(trie, **flags)


_COMPILED, _POINTER = _parser_pair()
_COMPILED_FULL, _POINTER_FULL = _parser_pair(
    allow_reverse=True, allow_allcaps=True
)
_CACHED_PARSER = FuzzyParser(build_base_trie(WORDS), parse_cache_size=64)

_METER = FuzzyPSM.train(WORDS, TRAINING_PASSWORDS)


class TestCompiledVsPointerTrie:
    @given(password=PASSWORDS)
    @unicode_capitals
    @DETERMINISTIC
    def test_parses_are_identical(self, password):
        assert _COMPILED.parse(password) == _POINTER.parse(password)

    @given(password=PASSWORDS)
    @DETERMINISTIC
    def test_parses_agree_with_all_rules_enabled(self, password):
        assert (
            _COMPILED_FULL.parse(password)
            == _POINTER_FULL.parse(password)
        )

    @given(batch=st.lists(PASSWORDS, max_size=20))
    @DETERMINISTIC
    def test_meter_probabilities_are_identical(self, batch):
        assert (
            _METER.probability_many(batch)
            == reference_scores(_METER, batch)
        )


class TestParseCache:
    @given(password=PASSWORDS)
    @DETERMINISTIC
    def test_cached_parse_equals_direct_parse(self, password):
        # Hits and misses alike: a second lookup must return the same
        # parse whether it was served from the LRU or recomputed.
        assert _CACHED_PARSER.parse_cached(password) == \
            _CACHED_PARSER.parse(password)
        assert _CACHED_PARSER.parse_cached(password) == \
            _CACHED_PARSER.parse(password)


class TestBatchScoring:
    @given(batch=st.lists(PASSWORDS, max_size=20))
    @DETERMINISTIC
    def test_probability_many_equals_per_call_loop(self, batch):
        expected = [_METER.probability(pw) for pw in batch]
        assert _METER.probability_many(batch) == expected

    @given(password=PASSWORDS)
    @DETERMINISTIC
    def test_entropy_many_equals_per_call(self, password):
        assert _METER.entropy_many([password]) == \
            [_METER.entropy(password)]


class TestParseInvariants:
    @given(password=PASSWORDS)
    @unicode_capitals
    @DETERMINISTIC
    def test_segments_tile_the_password(self, password):
        # Every transformation is length-preserving, so the segment
        # bases must partition the input exactly, and the derivation
        # must spell the input back.
        parsed = _COMPILED_FULL.parse(password)
        assert sum(len(seg.base) for seg in parsed.segments) == \
            len(password)
        assert parsed.password == password
        assert parsed.to_derivation().surface() == password

    @given(password=PASSWORDS)
    @DETERMINISTIC
    def test_parsing_is_deterministic(self, password):
        assert _COMPILED.parse(password) == _COMPILED.parse(password)
