"""Batch scoring and parallel-training APIs of :class:`FuzzyPSM`.

The contract under test: every fast path (``probability_many``, the
parse cache, ``train_grammar(..., jobs=N)``) is an execution-strategy
change only — results are bit-for-bit those of the serial per-call
code.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.compiled_trie import CompiledTrie
from repro.core.meter import FuzzyPSM, FuzzyPSMConfig
from repro.core.training import build_base_trie, train_grammar
from repro.util.freqdist import FrequencyDistribution

from tests.conftest import (
    BASE_DICTIONARY,
    TRAINING_PASSWORDS,
    reference_scores,
)


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


class TestParallelTraining:
    @pytest.fixture(autouse=True)
    def _force_pool(self, monkeypatch):
        # The small-corpus fallback would route every fixture-sized
        # corpus here through the serial path, and the CPU clamp would
        # do the same on a single-core CI host (see
        # tests/test_training_fallback.py for those behaviours); drop
        # the cutoff and pretend to be multicore so the pool machinery
        # itself stays under test.
        monkeypatch.setattr(
            "repro.core.training.PARALLEL_MIN_ENTRIES", 0
        )
        monkeypatch.setattr(
            "repro.core.training._available_cpus", lambda: 2
        )

    def test_jobs2_equals_serial(self, rng):
        trie = build_base_trie(BASE_DICTIONARY)
        training = TRAINING_PASSWORDS * 20 + [
            ("password1", 7), ("Dragon!", 3)
        ] + probe_stream(rng, 400)
        serial = train_grammar(training, trie)
        parallel = train_grammar(training, trie, jobs=2)
        assert parallel == serial

    def test_jobs1_and_none_are_serial(self):
        trie = build_base_trie(BASE_DICTIONARY)
        expected = train_grammar(TRAINING_PASSWORDS, trie)
        assert train_grammar(TRAINING_PASSWORDS, trie, jobs=1) == expected
        assert train_grammar(TRAINING_PASSWORDS, trie, jobs=0) == expected

    def test_meter_train_jobs(self, fuzzy_meter):
        parallel = FuzzyPSM.train(
            BASE_DICTIONARY, TRAINING_PASSWORDS, jobs=2
        )
        assert parallel.grammar == fuzzy_meter.grammar
        assert (
            parallel.probability("P@ssw0rd123")
            == fuzzy_meter.probability("P@ssw0rd123")
        )

    def test_parallel_respects_flags(self):
        config = FuzzyPSMConfig(allow_reverse=True, allow_allcaps=True)
        serial = FuzzyPSM.train(
            BASE_DICTIONARY, TRAINING_PASSWORDS + ["drowssap", "DRAGON"],
            config=config,
        )
        parallel = FuzzyPSM.train(
            BASE_DICTIONARY, TRAINING_PASSWORDS + ["drowssap", "DRAGON"],
            config=config, jobs=2,
        )
        assert parallel.grammar == serial.grammar

    def test_negative_jobs_rejected(self):
        trie = build_base_trie(BASE_DICTIONARY)
        with pytest.raises(ValueError, match="jobs"):
            train_grammar(TRAINING_PASSWORDS, trie, jobs=-1)

    def test_empty_training_parallel(self):
        trie = build_base_trie(BASE_DICTIONARY)
        assert train_grammar([], trie, jobs=2) == train_grammar([], trie)


class TestCountValidation:
    def test_train_rejects_zero_count(self):
        trie = build_base_trie(BASE_DICTIONARY)
        with pytest.raises(ValueError, match="positive"):
            train_grammar([("password", 0)], trie)

    def test_train_rejects_negative_count_parallel(self):
        trie = build_base_trie(BASE_DICTIONARY)
        with pytest.raises(ValueError, match="positive"):
            train_grammar([("password", -3)], trie, jobs=2)

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
        # key is ignored and the compiled trie — the only matcher —
        # parses.
        data = fuzzy_meter.to_dict()
        data["config"]["use_compiled_trie"] = False
        clone = FuzzyPSM.from_dict(data)
        assert clone.config == fuzzy_meter.config
        assert "use_compiled_trie" not in clone.to_dict()["config"]
        clone.parse("password123")
        assert isinstance(clone.parser.compiled_trie, CompiledTrie)


class TestFrequencyDistributionEquality:
    def test_freqdist_eq(self):
        left = FrequencyDistribution(["a", "a", "b", "b", "c"])
        assert left == FrequencyDistribution(["b", "a", "c", "a", "b"])
        assert left != FrequencyDistribution(["a"])
        assert left.total == 5
