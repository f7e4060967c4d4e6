"""Unit tests for the traditional PCFG meter (Weir'09 / Ma'14)."""

import random

import pytest

from repro.meters.pcfg import PCFGMeter, password_slots, structure_string
from repro.util.charclasses import CharClass


class TestSlots:
    def test_slots_of_mixed_password(self):
        slots = password_slots("password123")
        assert slots == ((CharClass.LETTER, 8), (CharClass.DIGIT, 3))

    def test_structure_string(self):
        assert structure_string(password_slots("p@ssw0rd")) == (
            "L1S1L3D1L2"
        )


class TestTrainingAndMeasuring:
    def test_probability_factorisation(self):
        meter = PCFGMeter.train(["abc12", "abd12", "xy9"])
        # P(L3D2)=2/3; P(abc|L3)=1/2; P(12|D2)=1.
        assert meter.probability("abc12") == pytest.approx(
            (2 / 3) * (1 / 2) * 1.0
        )

    def test_cross_product_generalisation(self):
        # PCFG's independence assumption scores recombinations > 0.
        meter = PCFGMeter.train(["abc12", "abd34"])
        assert meter.probability("abc34") > 0
        assert meter.probability("abd12") > 0

    def test_unseen_structure_zero(self):
        meter = PCFGMeter.train(["abc123"])
        assert meter.probability("abc123!") == 0.0

    def test_unseen_segment_zero(self):
        meter = PCFGMeter.train(["abc123"])
        assert meter.probability("xyz123") == 0.0

    def test_empty_password(self):
        meter = PCFGMeter.train(["abc"])
        assert meter.probability("") == 0.0

    def test_counts_respected(self):
        meter = PCFGMeter.train([("abc", 9), ("xyz", 1)])
        assert meter.probability("abc") > meter.probability("xyz")

    def test_observe_empty_rejected(self):
        with pytest.raises(ValueError):
            PCFGMeter().update("")

    def test_case_preserved_in_segments(self):
        # Ma'14-style learning: letter segments learned verbatim.
        meter = PCFGMeter.train(["Password1"])
        assert meter.probability("Password1") > 0
        assert meter.probability("password1") == 0.0

    def test_single_structure_fraction(self):
        meter = PCFGMeter.train(["abcdef", "123456", "abc123"])
        assert meter.single_simple_structure_fraction() == pytest.approx(
            2 / 3
        )


class TestCrackingInterface:
    def test_guesses_descending_and_unique(self):
        meter = PCFGMeter.train(
            ["abc12", "abc34", "abd12", "zz99", "hello", "hello"]
        )
        guesses = list(meter.iter_guesses(limit=50))
        probs = [p for _, p in guesses]
        assert probs == sorted(probs, reverse=True)
        strings = [g for g, _ in guesses]
        assert len(strings) == len(set(strings))

    def test_guess_probabilities_match_measure(self):
        meter = PCFGMeter.train(["abc12", "abc34", "abd12", "hello"])
        for guess, probability in meter.iter_guesses(limit=20):
            assert meter.probability(guess) == pytest.approx(probability)

    def test_guesses_include_recombinations(self):
        meter = PCFGMeter.train(["abc12", "abd34"])
        guesses = {g for g, _ in meter.iter_guesses(limit=20)}
        assert "abc34" in guesses

    def test_untrained_yields_nothing(self):
        assert list(PCFGMeter().iter_guesses(limit=5)) == []

    def test_sample_matches_measure(self):
        meter = PCFGMeter.train(["abc12", "abd12", "xy9", "hello1"])
        rng = random.Random(0)
        for _ in range(50):
            password, probability = meter.sample(rng)
            assert meter.probability(password) == pytest.approx(probability)

    def test_sample_untrained_raises(self):
        with pytest.raises(ValueError):
            PCFGMeter().sample(random.Random(0))
