"""Equivalence suite: the compiled word index vs the pointer trie.

:meth:`PrefixTrie.compile` builds a
:class:`~repro.core.word_index.WordIndex`, an execution-strategy change
only — every :meth:`~repro.core.word_index.WordIndex.match` must be
bit-for-bit the pointer trie's search behind the same signature
(:class:`~tests.conftest.PointerMatcher` over
:class:`~tests.pointer_trie.PointerTrie`).  These tests drive both with
randomized fuzzy corpora (including leet-in-base words like
``p@ssword``) and assert identical results.
"""

from __future__ import annotations

import random

import pytest

from repro.core.parser import FuzzyParser
from repro.core.trie import PrefixTrie
from repro.core.word_index import WordIndex
from repro.util.leet import LEET_BY_LETTER

from tests.conftest import PointerMatcher, longest_match, pointer_parser
from tests.pointer_trie import PointerTrie


WORDS = [
    "password", "p@ssword", "pass", "passw0rd", "word", "love",
    "iloveyou", "dragon", "drag0n", "monkey", "m0nkey", "he11o",
    "hello", "adm1n", "admin", "qwerty", "123qwe", "abc",
    "woaini", "5201314", "letmein",
]


def random_words(rng: random.Random, count: int) -> list:
    letters = "abcdefghijklmnopqrstuvwxyz"
    words = set(WORDS)
    while len(words) < count:
        length = rng.randint(3, 10)
        word = "".join(rng.choice(letters) for _ in range(length))
        if rng.random() < 0.2 and word[0] in LEET_BY_LETTER:
            # Leet-in-base words (Table IV has p@ssword itself).
            word = LEET_BY_LETTER[word[0]] + word[1:]
        words.add(word)
    return sorted(words)


def mutate(rng: random.Random, word: str) -> str:
    """Randomly capitalize / leet-toggle characters of a stored word."""
    out = []
    for offset, ch in enumerate(word):
        roll = rng.random()
        if roll < 0.25 and ch in LEET_BY_LETTER:
            out.append(LEET_BY_LETTER[ch])
        elif roll < 0.4 and offset == 0:
            out.append(ch.upper())
        else:
            out.append(ch)
    return "".join(out)


def random_probes(rng: random.Random, words: list, count: int) -> list:
    suffix_chars = "0123456789!@#.$"
    probes = []
    for _ in range(count):
        word = rng.choice(words)
        suffix = "".join(
            rng.choice(suffix_chars)
            for _ in range(rng.randint(0, 4))
        )
        probes.append(mutate(rng, word) + suffix)
    return probes


def stored_words(index: WordIndex) -> list:
    """Every word ``index`` holds, sorted, read from its words dict."""
    words = []
    for key, held in index._words.items():
        words += [held[at:at + len(key)] for at in range(0, len(held),
                                                          len(key))]
    return sorted(words)


def exact(index: WordIndex, word: str) -> bool:
    """True when ``index`` holds ``word`` verbatim."""
    found = longest_match(index, word, False, False)
    return found is not None and found[0] == word


@pytest.fixture(scope="module")
def tries():
    rng = random.Random(20160628)
    words = random_words(rng, 3000)
    pointer = PointerTrie(words)
    return pointer, pointer.compile(), words, rng


class TestBasicQueries:
    def test_len_and_min_length(self, tries):
        pointer, compiled, words, _ = tries
        assert len(compiled) == len(pointer) == len(words)
        assert compiled.min_length == pointer.min_length

    def test_contains(self, tries):
        pointer, compiled, words, _ = tries
        for word in words:
            assert exact(compiled, word)
        for probe in ("", "zz", "p@s", "passwordx", "P@ssword"):
            assert exact(compiled, probe) == (probe in pointer)

    def test_iter_words_lexicographic(self, tries):
        pointer, compiled, words, _ = tries
        assert stored_words(compiled) == list(pointer.iter_words())
        assert stored_words(compiled) == sorted(words)

    def test_longest_exact_prefix(self, tries):
        pointer, compiled, words, rng = tries
        for probe in random_probes(rng, words, 500):
            found = longest_match(compiled, probe, False, False)
            assert found == longest_match(
                PointerMatcher(pointer), probe, False, False
            )
            assert (found and found[0]) == \
                pointer.longest_exact_prefix(probe)

    def test_compile_is_a_snapshot(self):
        trie = PrefixTrie(["password"])
        compiled = trie.compile()
        trie.insert("monkey")
        assert "monkey" in trie
        assert not exact(compiled, "monkey")
        assert len(compiled) == 1


class TestFuzzyEquivalence:
    """Property tests over >= 1000 randomized passwords."""

    @pytest.mark.parametrize("allow_capitalization", [True, False])
    @pytest.mark.parametrize("allow_leet", [True, False])
    def test_longest_fuzzy_match_identical(
        self, tries, allow_capitalization, allow_leet
    ):
        pointer, compiled, words, rng = tries
        probes = random_probes(rng, words, 1200)
        probes += ["", "P@ssw0rd123", "DRAGON", "he11o!!", "M0nkey1"]
        reference = PointerMatcher(pointer)
        for probe in probes:
            expected = longest_match(
                reference, probe, allow_capitalization, allow_leet
            )
            actual = longest_match(
                compiled, probe, allow_capitalization, allow_leet
            )
            assert actual == expected, probe

    def test_start_offset_equals_slicing(self, tries):
        pointer, compiled, words, rng = tries
        reference = PointerMatcher(pointer)
        for probe in random_probes(rng, words, 300):
            for start in range(min(len(probe), 5)):
                expected = longest_match(reference, probe[start:])
                actual = longest_match(compiled, probe, start=start)
                assert actual == expected, (probe, start)

    def test_leet_in_base_word(self):
        compiled = PrefixTrie(["p@ssword", "password"]).compile()
        # Observed 'a' must match stored '@' (bidirectional toggles).
        base, _, toggled = longest_match(compiled, "passwords")[:3]
        assert (base, toggled) == ("password", ())
        base, _, toggled = longest_match(compiled, "p@ssword1")[:3]
        assert (base, toggled) == ("p@ssword", ())

    def test_tie_breaks_match_pointer_trie(self):
        # Same length, same transformation count -> lexicographic base.
        words = ["abc", "a8c", "obo", "0b0"]
        pointer = PointerTrie(words)
        compiled = pointer.compile()
        for probe in ("abc1", "a8c1", "obo!", "0b0!", "Abc", "ObO"):
            assert (
                longest_match(compiled, probe)
                == longest_match(PointerMatcher(pointer), probe)
            ), probe


class TestLayoutEdgeCases:
    def test_empty_trie(self):
        compiled = PrefixTrie().compile()
        assert len(compiled) == 0
        assert stored_words(compiled) == []
        assert longest_match(compiled, "password") is None

    def test_out_of_alphabet_probe_chars(self):
        # Characters no stored word holds must read as misses.
        compiled = PrefixTrie(["123", "456"]).compile()
        assert longest_match(compiled, "ééé") is None
        assert longest_match(compiled, "Ĕbc") is None
        assert longest_match(compiled, "123abc")[0] == "123"

    def test_digit_only_alphabet_rejects_symbol_partners(self):
        # Over digit-only words the '@'->'a' toggle must be a miss:
        # folding '@' gives a letter no stored word holds.
        pointer = PointerTrie(["111", "000"])
        compiled = pointer.compile()
        for probe in ("@11", "11@", "ooo", "0o0", "aaa"):
            assert (
                longest_match(compiled, probe)
                == longest_match(PointerMatcher(pointer), probe)
            ), probe

    def test_unicode_words(self):
        words = ["пароль", "密码密码", "motdepasse"]
        pointer = PointerTrie(words)
        compiled = pointer.compile()
        assert stored_words(compiled) == sorted(words)
        for word in words:
            assert exact(compiled, word)
            assert (
                longest_match(compiled, word + "1")
                == longest_match(PointerMatcher(pointer), word + "1")
            )

    def test_leet_variants_share_one_canonical_path(self):
        # Words are keyed by their leet-canonical spelling, so words
        # that differ only by leet substitutes share one key, which
        # holds them in lexicographic order.
        words = ["p@ssword", "passw0rd", "password"]
        compiled = PrefixTrie(words).compile()
        assert compiled._words == {"password": "".join(sorted(words))}
        assert stored_words(compiled) == sorted(words)
        for word in words:
            assert exact(compiled, word)
        assert not exact(compiled, "p@ssw0rd")
        base, _, toggled = longest_match(compiled, "p@ssw0rd")[:3]
        assert (base, toggled) == ("p@ssword", (5,))


class TestColumns:
    """The words an index is built from."""

    def test_words_shorter_than_min_length_are_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            WordIndex(["ab", "abc"], 3)


class TestParserEquivalence:
    """The word-index parser == the pointer-trie reference parser."""

    @pytest.mark.parametrize("flags", [
        {},
        {"allow_capitalization": False},
        {"allow_leet": False},
        {"allow_reverse": True},
        {"allow_allcaps": True},
        {"allow_reverse": True, "allow_allcaps": True},
    ])
    def test_parse_identical(self, tries, flags):
        pointer, _, words, rng = tries
        fast = FuzzyParser(pointer, **flags)
        slow = pointer_parser(pointer, **flags)
        probes = random_probes(rng, words, 300)
        probes += ["DRAGON99", "drowssap", "NOGARD", "P@ssw0rd!"]
        for probe in probes:
            assert fast.parse(probe) == slow.parse(probe), probe

    def test_compiled_matcher_is_lazy(self, tries):
        pointer, _, _, _ = tries
        parser = FuzzyParser(pointer)
        assert parser.word_index is None
        parser.parse("password")
        assert isinstance(parser.word_index, WordIndex)

    def test_reversed_trie_is_lazy(self, tries):
        pointer, _, _, _ = tries
        parser = FuzzyParser(pointer, allow_reverse=True)
        assert not parser.reversed_index_built
        parser.parse("password")
        assert parser.reversed_index_built

    def test_reversed_trie_unused_when_reverse_off(self, tries):
        pointer, _, _, rng = tries
        parser = FuzzyParser(pointer)
        for probe in random_probes(rng, list(WORDS), 50):
            parser.parse(probe)
        assert not parser.reversed_index_built
