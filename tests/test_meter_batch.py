"""Batch scoring APIs of :class:`FuzzyPSM`.

The contract under test: every fast path (``probability_many``, the
score memo) is an execution-strategy change only — results are
bit-for-bit those of the per-call code.
"""

from __future__ import annotations

import gc
import math
import random
from collections import OrderedDict

import pytest

from repro import obs
from repro.core.word_index import WordIndex
from repro.core.meter import FuzzyPSM, FuzzyPSMConfig, score_many
from repro.core.training import build_base_trie, train_grammar
from repro.persistence import load_meter, save_meter
from repro.util.freqdist import FrequencyDistribution

from tests.conftest import (
    BASE_DICTIONARY,
    TRAINING_PASSWORDS,
    PointerMatcher,
    longest_match,
    reference_scores,
)
from tests.pointer_trie import PointerTrie, _Node


def probe_stream(rng: random.Random, count: int) -> list:
    """A Zipf-ish stream with many repeats, like a real measuring load."""
    head = ["password", "123456", "P@ssw0rd", "iloveyou1", "Dragon99"]
    probes = []
    for _ in range(count):
        if rng.random() < 0.6:
            probes.append(rng.choice(head))
        else:
            probes.append(
                rng.choice(BASE_DICTIONARY) + str(rng.randint(0, 999))
            )
    return probes


class TestProbabilityMany:
    def test_equals_per_call(self, fuzzy_meter, rng):
        probes = probe_stream(rng, 500)
        expected = [fuzzy_meter.probability(pw) for pw in probes]
        assert fuzzy_meter.probability_many(probes) == expected

    def test_duplicates_and_empty(self, fuzzy_meter):
        probes = ["password", "", "password", "", "zz!@"]
        expected = [fuzzy_meter.probability(pw) for pw in probes]
        assert fuzzy_meter.probability_many(probes) == expected
        assert fuzzy_meter.probability_many([]) == []

    def test_accepts_any_iterable(self, fuzzy_meter):
        expected = fuzzy_meter.probability_many(["password", "123456"])
        actual = fuzzy_meter.probability_many(
            pw for pw in ["password", "123456"]
        )
        assert actual == expected

    def test_probabilities_uses_batch_path(self, fuzzy_meter, rng):
        probes = probe_stream(rng, 100)
        assert (
            fuzzy_meter.probabilities(probes)
            == fuzzy_meter.probability_many(probes)
        )

    def test_entropy_many(self, fuzzy_meter, rng):
        probes = probe_stream(rng, 100) + ["\x00unseen\x00"]
        expected = [fuzzy_meter.entropy(pw) for pw in probes]
        actual = fuzzy_meter.entropy_many(probes)
        assert actual == expected
        assert math.isinf(actual[-1])

    def test_auto_update_matches_sequential_calls(self):
        config = FuzzyPSMConfig(auto_update=True)
        batch_meter = FuzzyPSM.train(
            BASE_DICTIONARY, TRAINING_PASSWORDS, config=config
        )
        serial_meter = FuzzyPSM.train(
            BASE_DICTIONARY, TRAINING_PASSWORDS, config=config
        )
        probes = ["newpass1", "newpass1", "password", "newpass1"]
        expected = [serial_meter.probability(pw) for pw in probes]
        # Each measurement updates the grammar, so later values differ
        # from a memoised batch — the batch API must preserve that.
        assert batch_meter.probability_many(probes) == expected
        assert batch_meter.grammar == serial_meter.grammar

    def test_compiled_and_pointer_meters_agree(self, rng):
        # The pointer-trie side is the test-side reference parser.
        fast = FuzzyPSM.train(BASE_DICTIONARY, TRAINING_PASSWORDS)
        probes = probe_stream(rng, 300)
        assert fast.probability_many(probes) == \
            reference_scores(fast, probes)


class TestScoreMemo:
    def test_never_holds_more_than_the_cache_size(self, rng):
        meter = FuzzyPSM.train(
            BASE_DICTIONARY, TRAINING_PASSWORDS,
            config=FuzzyPSMConfig(parse_cache_size=8),
        )
        for _ in range(5):
            meter.probability_many(probe_stream(rng, 50))
            assert meter.score_memo_info()["size"] <= 8
        assert meter.score_memo_info() == {"size": 8, "capacity": 8}

    def test_a_hit_refreshes_its_place(self):
        meter = FuzzyPSM.train(
            BASE_DICTIONARY, TRAINING_PASSWORDS,
            config=FuzzyPSMConfig(parse_cache_size=2),
        )
        with obs.session() as telemetry:
            for password in ["password1", "dragon2", "password1",
                             "monkey3"]:  # evicts "dragon2", not the hit
                meter.probability_many([password])
            assert telemetry.counter("meter.memo.evict") == 1
            meter.probability_many(["password1"])
            assert telemetry.counter("meter.memo.hit") == 2
            meter.probability_many(["dragon2"])
            assert telemetry.counter("meter.memo.miss") == 4

    def test_size_zero_scores_identically_with_dedupe_in_a_call(
        self, rng, fuzzy_meter
    ):
        # A meter's memo holds at least one score (parse_cache_size is
        # positive); the batch loop itself still takes a size of zero.
        parser, frozen = fuzzy_meter.parser, fuzzy_meter.frozen_grammar()
        probes = probe_stream(rng, 300) + [""]
        memo: OrderedDict = OrderedDict()
        with obs.session() as telemetry:
            scores = score_many(parser, frozen, probes, memo, 0)
            parses = telemetry.counter("parser.parse")
            assert score_many(parser, frozen, probes, memo, 0) == scores
            hits = telemetry.counter("meter.memo.hit")
        assert scores == reference_scores(fuzzy_meter, probes)
        assert parses == len(set(probes)) - 1  # "" never parses
        assert hits == 0
        assert not memo


class TestCountValidation:
    def test_train_rejects_zero_count(self):
        trie = build_base_trie(BASE_DICTIONARY)
        with pytest.raises(ValueError, match="positive"):
            train_grammar([("password", 0)], trie)

    def test_accept_rejects_bad_counts(self, base_dictionary,
                                       training_passwords):
        meter = FuzzyPSM.train(base_dictionary, training_passwords)
        with pytest.raises(ValueError, match="positive"):
            meter.update("password1", count=0)
        with pytest.raises(ValueError, match="positive"):
            meter.update("password1", count=-1)
        before = meter.grammar.total_passwords
        meter.update("password1", count=2)
        assert meter.grammar.total_passwords == before + 2

    @pytest.mark.parametrize("count", [1.5, True])
    def test_accept_rejects_non_integer_counts(self, base_dictionary,
                                               training_passwords, count):
        meter = FuzzyPSM.train(base_dictionary, training_passwords)
        before = meter.grammar.to_dict()
        with pytest.raises(ValueError, match="'password1'.*integer"):
            meter.update("password1", count=count)
        assert meter.grammar.to_dict() == before


class TestSerialisation:
    def test_to_dict_reuses_word_list(self, base_dictionary,
                                      training_passwords):
        meter = FuzzyPSM.train(base_dictionary, training_passwords)
        first = meter.to_dict()["base_words"]
        second = meter.to_dict()["base_words"]
        assert first is second  # materialised once, shared thereafter
        assert first == sorted(meter.trie.iter_words())

    def test_base_words_refreshes_on_trie_growth(self, base_dictionary,
                                                 training_passwords):
        meter = FuzzyPSM.train(base_dictionary, training_passwords)
        before = meter.base_words()
        meter.trie.insert("zzznewword")
        after = meter.base_words()
        assert after is not before
        assert "zzznewword" in after

    def test_round_trip_preserves_config_and_scores(self, rng):
        config = FuzzyPSMConfig(allow_reverse=True, parse_cache_size=128)
        meter = FuzzyPSM.train(
            BASE_DICTIONARY, TRAINING_PASSWORDS, config=config
        )
        clone = FuzzyPSM.from_dict(meter.to_dict())
        assert clone.config == config
        probes = probe_stream(rng, 100)
        assert clone.probability_many(probes) == \
            meter.probability_many(probes)

    def test_legacy_dict_defaults_to_compiled(self, fuzzy_meter):
        # Older model files name the trie matcher in their config; the
        # key is ignored and the word index — the only matcher —
        # parses.
        data = fuzzy_meter.to_dict()
        data["config"]["use_compiled_trie"] = False
        clone = FuzzyPSM.from_dict(data)
        assert clone.config == fuzzy_meter.config
        assert "use_compiled_trie" not in clone.to_dict()["config"]
        clone.parse("password123")
        assert isinstance(clone.parser.word_index, WordIndex)


class TestPointerNodes:
    def test_load_and_score_build_none(self, fuzzy_meter, rng, tmp_path):
        path = str(tmp_path / "model.fpsm")
        save_meter(fuzzy_meter, path, fmt="binary")
        probes = probe_stream(rng, 200)
        # Hold the nodes that exist already, so no new node can reuse
        # the id of one collected meanwhile.
        existing = [o for o in gc.get_objects() if type(o) is _Node]
        known = {id(node) for node in existing}
        meter = load_meter(path)
        scores = meter.probability_many(probes)
        built = [
            o for o in gc.get_objects()
            if type(o) is _Node and id(o) not in known
        ]
        assert built == []
        # A pointer trie over the loaded words answers as the compiled
        # matcher does, and still does after an insert.
        trie = PointerTrie.of(meter.trie)
        assert scores == reference_scores(meter, probes)
        compiled = trie.compile()
        for probe in probes:
            assert longest_match(PointerMatcher(trie), probe) == \
                longest_match(compiled, probe)
        assert trie.insert("p@ssw0rdz")
        compiled = trie.compile()
        for probe in ["P@ssw0rdz1", "p@ssw0rdz!", "password"]:
            assert longest_match(PointerMatcher(trie), probe) == \
                longest_match(compiled, probe)
            found = longest_match(compiled, probe, False, False)
            assert trie.longest_exact_prefix(probe) == \
                (found and found[0])
        assert trie.longest_fuzzy_match("P@ssw0rdz1").base == "p@ssw0rdz"


class TestFrequencyDistributionEquality:
    def test_freqdist_eq(self):
        left = FrequencyDistribution(["a", "a", "b", "b", "c"])
        assert left == FrequencyDistribution(["b", "a", "c", "a", "b"])
        assert left != FrequencyDistribution(["a"])
        assert left.total == 5
