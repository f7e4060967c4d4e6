"""Shared fixtures: small deterministic corpora and trained meters."""

from __future__ import annotations

import random

import pytest

from repro.core import FuzzyPSM
from repro.core.parser import FuzzyParser
from repro.core.trie import PrefixTrie
from repro.core.word_index import canonical
from repro.datasets import SyntheticEcosystem
from repro.meters import MarkovMeter, PCFGMeter

from tests.pointer_trie import PointerTrie

#: A base dictionary resembling the paper's running examples.
BASE_DICTIONARY = [
    "password", "p@ssword", "123456", "123qwe", "dragon", "iloveyou",
    "qwerty", "111111", "woaini", "5201314", "letmein", "monkey",
]

#: A training list exercising every transformation rule.
TRAINING_PASSWORDS = [
    "password", "password", "password123", "Password123", "p@ssw0rd",
    "123qwe123qwe", "123456", "123456", "123456", "iloveyou1",
    "Dragon", "qwerty12", "tyxdqd123", "woaini520", "5201314",
    "letmein!", "monkey99", "PASSWORD",
]


class PointerMatcher:
    """A pointer trie behind :meth:`WordIndex.match`'s signature.

    The parse loop hands every matcher the password and its folded
    spelling; the pointer search needs only the password, and its
    :class:`~tests.pointer_trie.FuzzyMatch` becomes the same forward
    flat segment the index returns.  A plain :class:`PrefixTrie` is
    copied into a :class:`~tests.pointer_trie.PointerTrie` first.
    """

    def __init__(self, trie: PrefixTrie) -> None:
        self.trie = PointerTrie.of(trie)

    def match(self, text, folded, start, capitalization, leet):
        found = self.trie.longest_fuzzy_match(text, capitalization, leet,
                                              start)
        if found is None:
            return None
        return (found.base, found.capitalized, found.toggled_offsets,
                False, False, True)


def longest_match(matcher, text, capitalization=True, leet=True, start=0):
    """``matcher.match`` at ``text[start:]``, folding ``text`` the way
    the parse loop does: the forward segment a parse would take there,
    or None (also past the end of ``text``)."""
    if start >= len(text):
        return None
    return matcher.match(text, canonical(text), start, capitalization, leet)


def pointer_parser(trie: PrefixTrie, **flags) -> FuzzyParser:
    """The pointer-trie reference parser for the parse differentials.

    Production parses only ever probe the word index; this parser runs
    the same parse loop over pointer-trie searches
    (:class:`PointerMatcher`), with the reverse rule's trie built the
    way the parser builds its own index.
    """
    reversed_matcher = None
    if flags.get("allow_reverse"):
        reversed_trie = PointerTrie(min_length=trie.min_length)
        for word in trie.iter_words():
            if word != word[::-1]:
                reversed_trie.insert(word[::-1])
        reversed_matcher = PointerMatcher(reversed_trie)
    return FuzzyParser.from_compiled(
        PointerMatcher(trie), reversed_matcher, trie.min_length, flags
    )


def reference_scores(meter: FuzzyPSM, passwords) -> list:
    """``meter``'s scores recomputed from the pointer-trie reference
    parse and the count-table kernel (the paper's Fig. 11 product)."""
    parser = pointer_parser(meter.trie, **meter.parser.flags)
    probability = meter.grammar.derivation_probability
    return [
        probability(parser.parse(password).to_derivation())
        if password else 0.0
        for password in passwords
    ]


@pytest.fixture(scope="session")
def base_dictionary():
    return list(BASE_DICTIONARY)


@pytest.fixture(scope="session")
def training_passwords():
    return list(TRAINING_PASSWORDS)


@pytest.fixture(scope="session")
def fuzzy_meter(base_dictionary, training_passwords):
    return FuzzyPSM.train(base_dictionary, training_passwords)


@pytest.fixture(scope="session")
def pcfg_meter(training_passwords):
    return PCFGMeter.train(training_passwords)


@pytest.fixture(scope="session")
def markov_meter(training_passwords):
    return MarkovMeter.train(training_passwords, order=2)


@pytest.fixture(scope="session")
def ecosystem():
    return SyntheticEcosystem(seed=7, population=5_000)


@pytest.fixture(scope="session")
def small_corpus(ecosystem):
    return ecosystem.generate("csdn", total=3_000)


@pytest.fixture()
def rng():
    return random.Random(12345)
