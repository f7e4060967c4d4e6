"""Property-based differential tests: every fast path vs its reference.

The performance layer (the word index, batch scoring) is
contractually an execution-strategy change only.  These tests pit each
fast path against its reference implementation on generated inputs —
unicode text, leet-dense dictionary mashups, lengths 0-64, base words
of 30-64 characters — and demand bitwise-identical results.  The word
index's reference is the pointer :class:`PrefixTrie`, searched by the
test-side parser ``tests.conftest.pointer_parser``.

``derandomize=True`` pins Hypothesis to its deterministic seed, so a
failure here reproduces identically on every machine and CI run.
"""

from __future__ import annotations

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repro.core.meter import FuzzyPSM  # noqa: E402
from repro.core.parser import FuzzyParser  # noqa: E402
from repro.core.training import build_base_trie  # noqa: E402
from repro.util.leet import LEET_BY_LETTER, LEET_BY_SUBSTITUTE  # noqa: E402

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


#: Words of one and two characters, so short prefix keys have words
#: of their own length, leet-led and digit ones among them.
SHORT_WORDS = ["a", "@", "i", "1", "s", "x", "ab", "@b", "12", "o0", "qw"]


def _long_words() -> "list[str]":
    """Base words 30-64 characters long, as real leaks hold.

    Each is cut at several lengths, so one prefix key holds several
    stored lengths and a probe near the end of a password finds only
    the shorter ones fitting; some lead with a leet substitute.
    """
    syllables = ["pass", "word", "love", "star", "dragon", "monkey",
                 "admin", "sunshine", "secret", "tiger", "apple", "eagle",
                 "ice", "orange", "test"]
    draw = random.Random(2016)
    words = set()
    while len(words) < 60:
        word = ""
        while len(word) < 64:
            word += draw.choice(syllables)
        for size in (30, draw.randint(31, 63), 64):
            cut = word[:size]
            if draw.random() < 0.3 and cut[0] in LEET_BY_LETTER:
                cut = LEET_BY_LETTER[cut[0]] + cut[1:]
            words.add(cut)
    return sorted(words)


LONG_WORDS = _long_words()


@st.composite
def long_probe(draw) -> str:
    """A long base word, possibly cut short, pushed through the rules.

    A word that leads with a substitute is also drawn capitalised with
    the letter (``$tar...`` as ``Star...``), which the capitalised
    reading must not match: a capital takes no leet toggle.
    """
    word = draw(st.sampled_from(LONG_WORDS))
    word = word[:draw(st.integers(min_value=1, max_value=len(word)))]
    chars = [
        LEET_BY_LETTER.get(char, char) if draw(st.booleans()) else char
        for char in word
    ]
    if draw(st.booleans()):
        first = LEET_BY_SUBSTITUTE.get(chars[0], chars[0])
        chars[0] = first.upper()
    suffix = draw(st.sampled_from(["", "1", "!", "2016", "@1", "x"]))
    return "".join(chars) + suffix


@st.composite
def long_mashup(draw) -> str:
    """Two or three long probes run together."""
    return "".join(draw(st.lists(long_probe(), min_size=2, max_size=3)))


LONG_PASSWORDS = st.one_of(long_probe(), long_mashup())

#: Flag sets the probe tests run under.
PROBE_FLAGS = {
    "default": {},
    "reverse+allcaps": {"allow_reverse": True, "allow_allcaps": True},
}

_PROBE_PARSERS: dict = {}


def _probe_pair(words, min_length: int, flags: str):
    """Index and pointer parsers over ``words``, built once per key."""
    key = (len(words), min_length, flags)
    if key not in _PROBE_PARSERS:
        trie = build_base_trie(words, min_length=min_length)
        _PROBE_PARSERS[key] = (
            FuzzyParser(trie, **PROBE_FLAGS[flags]),
            pointer_parser(trie, **PROBE_FLAGS[flags]),
        )
    return _PROBE_PARSERS[key]


class TestIndexProbes:
    """What the index's probes assume, against the pointer reference:
    prefix keys ``min_length`` characters long, and words far longer
    than the key."""

    @pytest.mark.parametrize("flags", sorted(PROBE_FLAGS))
    @pytest.mark.parametrize("min_length", [1, 2, 5])
    @given(password=PASSWORDS)
    @unicode_capitals
    @DETERMINISTIC
    def test_prefix_keys_of_any_length(self, min_length, flags, password):
        index, pointer = _probe_pair(WORDS + SHORT_WORDS, min_length,
                                     flags)
        assert index.parse(password) == pointer.parse(password)

    @pytest.mark.parametrize("flags", sorted(PROBE_FLAGS))
    @given(password=LONG_PASSWORDS)
    @DETERMINISTIC
    def test_long_base_words(self, flags, password):
        index, pointer = _probe_pair(LONG_WORDS, 3, flags)
        assert index.parse(password) == pointer.parse(password)


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
