"""Unit tests for FuzzyPSM: train / measure / update / guesses."""

import math
import random

import pytest

from repro.core import FuzzyPSM, FuzzyPSMConfig
from repro.core.training import build_base_trie, train_grammar


class TestTraining:
    def test_trained_meter_measures_training_password(self, fuzzy_meter):
        assert fuzzy_meter.probability("password123") > 0

    def test_base_trie_lowercased_and_filtered(self):
        trie = build_base_trie(["PassWord", "ab", "XYZ"])
        assert "password" in trie
        assert "xyz" in trie
        assert "ab" not in trie

    def test_training_with_counts(self, base_dictionary):
        meter = FuzzyPSM.train(
            base_dictionary, [("password", 9), ("dragon", 1)]
        )
        assert meter.probability("password") > meter.probability("dragon")

    def test_empty_training_passwords_skipped(self, base_dictionary):
        meter = FuzzyPSM.train(base_dictionary, ["password", ""])
        assert meter.grammar.total_passwords == 1

    def test_train_grammar_rejects_empty_when_strict(self, base_dictionary):
        trie = build_base_trie(base_dictionary)
        with pytest.raises(ValueError):
            train_grammar([""], trie, skip_empty=False)


class TestMeasuring:
    def test_weaker_passwords_score_higher(self, fuzzy_meter):
        assert (
            fuzzy_meter.probability("password")
            > fuzzy_meter.probability("password123")
        )

    def test_unseen_structure_is_zero(self, fuzzy_meter):
        assert fuzzy_meter.probability("zzzzzz!!!!zzzz97531x") == 0.0

    def test_empty_password_is_zero(self, fuzzy_meter):
        assert fuzzy_meter.probability("") == 0.0

    def test_entropy_consistent(self, fuzzy_meter):
        p = fuzzy_meter.probability("password")
        assert fuzzy_meter.entropy("password") == pytest.approx(
            -math.log2(p)
        )

    def test_capitalized_variant_weaker_than_garbage(self, fuzzy_meter):
        # Password123 derives from password123's parse with one cap op.
        cap = fuzzy_meter.probability("Password123")
        assert 0 < cap < fuzzy_meter.probability("password123")

    def test_probabilities_batch(self, fuzzy_meter):
        passwords = ["password", "123456", "nosuchpw"]
        values = fuzzy_meter.probabilities(passwords)
        assert values == [fuzzy_meter.probability(pw) for pw in passwords]

    def test_measurement_is_pure_by_default(self, base_dictionary,
                                             training_passwords):
        meter = FuzzyPSM.train(base_dictionary, training_passwords)
        before = meter.probability("password")
        for _ in range(5):
            meter.probability("password")
        assert meter.probability("password") == before

    def test_auto_update_config(self, base_dictionary, training_passwords):
        meter = FuzzyPSM.train(
            base_dictionary, training_passwords,
            config=FuzzyPSMConfig(auto_update=True),
        )
        before = meter.probability("password")
        meter.probability("password")
        assert meter.probability("password") > before


class TestExplain:
    def test_explanation_fields(self, fuzzy_meter):
        explanation = fuzzy_meter.explain("P@ssw0rd123")
        assert explanation.password == "P@ssw0rd123"
        assert explanation.probability == fuzzy_meter.probability(
            "P@ssw0rd123"
        )
        assert explanation.structure.startswith("B")
        assert any("capitalized" in desc for _, desc in explanation.segments)

    def test_explanation_lines_render(self, fuzzy_meter):
        lines = fuzzy_meter.explain("password123").lines()
        assert any("structure" in line for line in lines)


class TestUpdatePhase:
    def test_accept_increases_probability(self, base_dictionary,
                                           training_passwords):
        meter = FuzzyPSM.train(base_dictionary, training_passwords)
        target = "qwerty12"
        before = meter.probability(target)
        meter.update(target, count=10)
        assert meter.probability(target) > before

    def test_accept_makes_unseen_structures_derivable(self, base_dictionary,
                                                      training_passwords):
        meter = FuzzyPSM.train(base_dictionary, training_passwords)
        novel = "password!!!!!!"
        assert meter.probability(novel) == 0.0
        meter.update(novel)
        assert meter.probability(novel) > 0.0

    def test_accept_empty_rejected(self, fuzzy_meter):
        with pytest.raises(ValueError):
            fuzzy_meter.update("")


class TestGuessEnumeration:
    def test_guesses_descending(self, fuzzy_meter):
        guesses = list(fuzzy_meter.iter_guesses(limit=200))
        probabilities = [p for _, p in guesses]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_guesses_unique(self, fuzzy_meter):
        guesses = [g for g, _ in fuzzy_meter.iter_guesses(limit=200)]
        assert len(guesses) == len(set(guesses))

    def test_guess_probabilities_match_measure(self, fuzzy_meter):
        for guess, probability in fuzzy_meter.iter_guesses(limit=50):
            assert fuzzy_meter.probability(guess) == pytest.approx(
                probability, rel=1e-9
            ), guess

    def test_top_guess_is_most_probable_training_password(self, fuzzy_meter):
        top_guess, _ = next(iter(fuzzy_meter.iter_guesses(limit=1)))
        assert top_guess in ("password", "123456")

    def test_untrained_meter_yields_nothing(self, base_dictionary):
        meter = FuzzyPSM.train(base_dictionary, [])
        assert list(meter.iter_guesses(limit=5)) == []


class TestSampling:
    def test_sample_agrees_with_measure(self, fuzzy_meter, rng):
        # The rejection sampler only returns canonical derivations, so
        # the sampled probability must equal the measured one exactly.
        for _ in range(100):
            password, probability = fuzzy_meter.sample(rng)
            assert fuzzy_meter.probability(password) == pytest.approx(
                probability, rel=1e-12
            )

    def test_sample_only_positive_probability(self, fuzzy_meter, rng):
        for _ in range(100):
            _, probability = fuzzy_meter.sample(rng)
            assert probability > 0
