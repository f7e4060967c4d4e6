"""Shared fixtures: small deterministic corpora and trained meters."""

from __future__ import annotations

import os
import random

import pytest

from repro.core import FuzzyPSM
from repro.core.parser import FuzzyParser
from repro.core.trie import PrefixTrie
from repro.datasets import PasswordCorpus, SyntheticEcosystem
from repro.meters import MarkovMeter, PCFGMeter, Smoothing

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


def pointer_parser(trie: PrefixTrie, **flags) -> FuzzyParser:
    """The pointer-trie reference parser for the parse differentials.

    Production parses only ever match against the compiled trie; this
    parser runs the same rules over plain :class:`PrefixTrie` walks
    (both tries expose the same ``longest_fuzzy_match``), with the
    reverse rule's trie built the way the parser builds its own.
    """
    reversed_trie = None
    if flags.get("allow_reverse"):
        reversed_trie = PrefixTrie(min_length=trie.min_length)
        for word in trie.iter_words():
            if word != word[::-1]:
                reversed_trie.insert(word[::-1])
    return FuzzyParser.from_compiled(
        trie, reversed_trie, trie.min_length, flags
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


def _snapshot_segments() -> set:
    """Names of snapshot-plane segments currently in ``/dev/shm``."""
    from repro.core.shm import SEGMENT_PREFIX

    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return set()
    return {
        name for name in os.listdir("/dev/shm")
        if name.startswith(SEGMENT_PREFIX)
    }


@pytest.fixture(scope="session", autouse=True)
def _shm_leak_guard():
    """Fail the session if shared-memory segments leak (DESIGN.md §16).

    Every segment the suite creates must be unlinked by the code under
    test — pool teardown, server stop, epoch swaps — or still be owned
    by *this* process (those are swept by the ``atexit`` hook, which
    runs after this fixture).  Anything else in ``/dev/shm`` is a leak:
    a worker or server process died owning a segment nobody reclaims.
    """
    preexisting = _snapshot_segments()
    yield
    from repro.core import shm as shm_module

    leaked = sorted(
        name
        for name in _snapshot_segments() - preexisting
        if name not in shm_module._OWNED
    )
    assert not leaked, (
        f"leaked shared-memory segments (unowned, never unlinked): "
        f"{leaked}"
    )


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
