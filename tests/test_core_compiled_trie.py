"""Equivalence suite: compiled (flat-array) trie vs pointer trie.

The compiled trie is an execution-strategy change only — every query
must be bit-for-bit identical to :class:`PrefixTrie`.  These tests
drive both implementations with randomized fuzzy corpora (including
leet-in-base words like ``p@ssword``) and assert identical results.
"""

from __future__ import annotations

import random

import pytest

from repro.core.compiled_trie import CompiledTrie
from repro.core.parser import FuzzyParser
from repro.core.trie import PrefixTrie
from repro.util.leet import LEET_BY_LETTER

from tests.conftest import pointer_parser


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


@pytest.fixture(scope="module")
def tries():
    rng = random.Random(20160628)
    words = random_words(rng, 3000)
    pointer = PrefixTrie(words)
    return pointer, pointer.compile(), words, rng


class TestBasicQueries:
    def test_len_and_min_length(self, tries):
        pointer, compiled, words, _ = tries
        assert len(compiled) == len(pointer) == len(words)
        assert compiled.min_length == pointer.min_length

    def test_contains(self, tries):
        pointer, compiled, words, _ = tries
        for word in words:
            assert word in compiled
        for probe in ("", "zz", "p@s", "passwordx", 42, None):
            assert (probe in compiled) == (probe in pointer)

    def test_iter_words_lexicographic(self, tries):
        pointer, compiled, words, _ = tries
        assert list(compiled.iter_words()) == list(pointer.iter_words())
        assert list(compiled.iter_words()) == sorted(words)

    def test_longest_exact_prefix(self, tries):
        pointer, compiled, words, rng = tries
        for probe in random_probes(rng, words, 500):
            assert (
                compiled.longest_exact_prefix(probe)
                == pointer.longest_exact_prefix(probe)
            )

    def test_compile_is_a_snapshot(self):
        trie = PrefixTrie(["password"])
        compiled = trie.compile()
        trie.insert("monkey")
        assert "monkey" in trie
        assert "monkey" not in compiled
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
        for probe in probes:
            expected = pointer.longest_fuzzy_match(
                probe,
                allow_capitalization=allow_capitalization,
                allow_leet=allow_leet,
            )
            actual = compiled.longest_fuzzy_match(
                probe,
                allow_capitalization=allow_capitalization,
                allow_leet=allow_leet,
            )
            assert actual == expected, probe

    def test_start_offset_equals_slicing(self, tries):
        pointer, compiled, words, rng = tries
        for probe in random_probes(rng, words, 300):
            for start in range(min(len(probe), 5)):
                expected = pointer.longest_fuzzy_match(probe[start:])
                actual = compiled.longest_fuzzy_match(probe, start=start)
                assert actual == expected, (probe, start)

    def test_leet_in_base_word(self):
        compiled = PrefixTrie(["p@ssword", "password"]).compile()
        # Observed 'a' must match stored '@' (bidirectional toggles).
        match = compiled.longest_fuzzy_match("passwords")
        assert match.base == "password"
        assert match.toggled_offsets == ()
        match = compiled.longest_fuzzy_match("p@ssword1")
        assert match.base == "p@ssword"
        assert match.toggled_offsets == ()

    def test_tie_breaks_match_pointer_trie(self):
        # Same length, same transformation count -> lexicographic base.
        words = ["abc", "a8c", "obo", "0b0"]
        pointer = PrefixTrie(words)
        compiled = pointer.compile()
        for probe in ("abc1", "a8c1", "obo!", "0b0!", "Abc", "ObO"):
            assert (
                compiled.longest_fuzzy_match(probe)
                == pointer.longest_fuzzy_match(probe)
            ), probe


class TestLayoutEdgeCases:
    def test_empty_trie(self):
        compiled = PrefixTrie().compile()
        assert len(compiled) == 0
        assert list(compiled.iter_words()) == []
        assert "password" not in compiled
        assert compiled.longest_fuzzy_match("password") is None

    def test_out_of_alphabet_probe_chars(self):
        # The packed-key shift is sized to the edge alphabet; ordinals
        # beyond it must read as misses, never alias another node.
        compiled = PrefixTrie(["123", "456"]).compile()
        assert compiled.longest_fuzzy_match("ééé") is None
        assert "Ĕbc" not in compiled
        assert compiled.longest_fuzzy_match("123abc").base == "123"

    def test_digit_only_alphabet_rejects_symbol_partners(self):
        # With a digit-only alphabet the bound sits below ord('@');
        # the '@'->'a' toggle must be a miss, not an aliased hit.
        pointer = PrefixTrie(["111", "000"])
        compiled = pointer.compile()
        for probe in ("@11", "11@", "ooo", "0o0", "aaa"):
            assert (
                compiled.longest_fuzzy_match(probe)
                == pointer.longest_fuzzy_match(probe)
            ), probe

    def test_unicode_words(self):
        words = ["пароль", "密码密码", "motdepasse"]
        pointer = PrefixTrie(words)
        compiled = pointer.compile()
        assert list(compiled.iter_words()) == sorted(words)
        for word in words:
            assert word in compiled
            assert (
                compiled.longest_fuzzy_match(word + "1")
                == pointer.longest_fuzzy_match(word + "1")
            )

    def test_leet_variants_share_one_canonical_path(self):
        # Edges are keyed by the leet-canonical character, so words
        # that differ only by leet substitutes end on one node, which
        # holds them in lexicographic order.
        words = ["p@ssword", "passw0rd", "password"]
        compiled = PrefixTrie(words).compile()
        assert compiled.node_count == 1 + len("password")
        assert list(compiled.iter_words()) == sorted(words)
        for word in words:
            assert word in compiled
        assert "p@ssw0rd" not in compiled
        match = compiled.longest_fuzzy_match("p@ssw0rd")
        assert match.base == "p@ssword"
        assert match.toggled_offsets == (5,)


class TestParserEquivalence:
    """The compiled-trie parser == the pointer-trie reference parser."""

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
        assert parser.compiled_trie is None
        parser.parse("password")
        assert isinstance(parser.compiled_trie, CompiledTrie)

    def test_reversed_trie_is_lazy(self, tries):
        pointer, _, _, _ = tries
        parser = FuzzyParser(pointer, allow_reverse=True)
        assert not parser.reversed_trie_built
        parser.parse("password")
        assert parser.reversed_trie_built

    def test_reversed_trie_unused_when_reverse_off(self, tries):
        pointer, _, _, rng = tries
        parser = FuzzyParser(pointer)
        for probe in random_probes(rng, list(WORDS), 50):
            parser.parse(probe)
        assert not parser.reversed_trie_built

    def test_parse_cached_equals_parse(self, tries):
        pointer, _, words, rng = tries
        parser = FuzzyParser(pointer, parse_cache_size=64)
        probes = random_probes(rng, words, 200)
        probes.extend(probes[:50])  # force cache hits
        for probe in probes:
            assert parser.parse_cached(probe) == parser.parse(probe)
