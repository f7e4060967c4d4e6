"""Tests for the reverse transformation rule (the paper's future work).

Sec. IV-C's limitations: "other rules, such as substring movement and
reverse are left as future research."  The extension is config-gated
(``FuzzyPSMConfig(allow_reverse=True)``); with the flag off the meter
must behave exactly as published.
"""

import random

import pytest

from repro.core import FuzzyPSM, FuzzyPSMConfig
from repro.core.grammar import DerivedSegment, FuzzyGrammar
from repro.core.parser import FuzzyParser
from repro.core.trie import PrefixTrie

BASE = ["password", "dragon", "iloveyou", "123qwe", "sunshine"]
TRAINING = [
    "password", "password123", "drowssap", "nogard1", "iloveyou",
    "sunshine", "dragon", "123qwe",
]


@pytest.fixture(scope="module")
def reverse_meter():
    return FuzzyPSM.train(
        BASE, TRAINING, config=FuzzyPSMConfig(allow_reverse=True)
    )


@pytest.fixture(scope="module")
def plain_meter():
    return FuzzyPSM.train(BASE, TRAINING)


class TestDerivedSegmentReverse:
    def test_surface_reversed(self):
        segment = DerivedSegment("password", reversed_word=True)
        assert segment.surface() == "drowssap"

    def test_transformations_before_reversal(self):
        # Capitalize first letter of the base, then reverse.
        segment = DerivedSegment("password", capitalized=True,
                                 reversed_word=True)
        assert segment.surface() == "drowssaP"

    def test_leet_offsets_are_base_relative(self):
        segment = DerivedSegment("password", toggled_offsets=(1,),
                                 reversed_word=True)
        assert segment.surface() == "drowss@p"

    def test_default_not_reversed(self):
        assert DerivedSegment("abc").surface() == "abc"


class TestParserReverse:
    def test_reversed_word_recognised(self, reverse_meter):
        parse = reverse_meter.parse("drowssap")
        segment = parse.segments[0]
        assert segment.base == "password"
        assert segment.reversed_word

    def test_reversed_word_with_leet(self):
        parser = FuzzyParser(PrefixTrie(["password"]),
                             allow_reverse=True)
        # reverse(password) with the 'a' (base offset 1) leeted.
        parse = parser.parse("drowss@p")
        segment = parse.segments[0]
        assert segment.base == "password"
        assert segment.reversed_word
        assert segment.toggled_offsets == (1,)

    def test_forward_reading_preferred_on_tie(self):
        # "level" reversed is "level": palindromes never parse as
        # reversed (excluded from the reversed trie).
        parser = FuzzyParser(PrefixTrie(["level"]), allow_reverse=True)
        parse = parser.parse("level")
        assert not parse.segments[0].reversed_word

    def test_longest_match_wins_across_directions(self):
        # Forward "dra" (stored) vs reversed "dragons" (stored as
        # "snogard" reversed)... construct: stored words "dra" and
        # "snogard"[::-1] = "dragons"; query "snogard".
        parser = FuzzyParser(PrefixTrie(["sno", "dragons"]),
                             allow_reverse=True)
        parse = parser.parse("snogard")
        segment = parse.segments[0]
        assert segment.base == "dragons"
        assert segment.reversed_word

    def test_flag_off_means_fallback(self, plain_meter):
        parse = plain_meter.parse("drowssap")
        assert all(not seg.reversed_word for seg in parse.segments)

    def test_surface_round_trip(self, reverse_meter):
        for password in ("drowssap", "nogard1", "password123"):
            parse = reverse_meter.parse(password)
            assert parse.to_derivation().surface() == password


class TestGrammarReverse:
    def test_reverse_counts_learned(self, reverse_meter):
        grammar = reverse_meter.grammar
        assert grammar.reverse.count(True) >= 2   # drowssap, nogard1
        assert grammar.reverse.count(False) > 0

    def test_reverse_rows_in_rule_table(self, reverse_meter):
        rows = reverse_meter.grammar.rule_table()
        reverse_rows = [row for row in rows if row[0] == "Reverse"]
        assert len(reverse_rows) == 2
        assert sum(p for _, _, p in reverse_rows) == pytest.approx(1.0)

    def test_no_reverse_rows_when_unused(self, plain_meter):
        rows = plain_meter.grammar.rule_table()
        assert all(row[0] != "Reverse" for row in rows)

    def test_serialisation_round_trip(self, reverse_meter):
        clone = FuzzyGrammar.from_dict(reverse_meter.grammar.to_dict())
        parse = reverse_meter.parse("drowssap").to_derivation()
        assert clone.derivation_probability(
            parse
        ) == reverse_meter.grammar.derivation_probability(parse)

    def test_legacy_document_without_reverse_key(self, plain_meter):
        document = plain_meter.grammar.to_dict()
        del document["reverse"]
        clone = FuzzyGrammar.from_dict(document)
        assert clone.derivation_probability(
            plain_meter.parse("password").to_derivation()
        ) == plain_meter.probability("password")


class TestMeterReverse:
    def test_reversed_password_measurable(self, reverse_meter):
        assert reverse_meter.probability("drowssap") > 0.0
        # And a fresh reversal of another base word is derivable too.
        assert reverse_meter.probability("enihsnus") > 0.0

    def test_probability_consistency_both_readings(self, reverse_meter):
        # password appears unreversed too; the reversal costs the
        # reverse factor, so the reversed form is strictly weaker.
        assert (
            reverse_meter.probability("drowssap")
            < reverse_meter.probability("password")
        )

    def test_flag_off_reverse_unreachable(self, plain_meter):
        assert plain_meter.probability("enihsnus") == 0.0

    def test_explain_mentions_reverse(self, reverse_meter):
        explanation = reverse_meter.explain("drowssap")
        assert any(
            "reversed" in description
            for _, description in explanation.segments
        )

    def test_guess_probabilities_match_measure(self, reverse_meter):
        for guess, probability in reverse_meter.iter_guesses(limit=80):
            assert reverse_meter.probability(guess) == pytest.approx(
                probability, rel=1e-9
            ), guess

    def test_guesses_include_reversed_variants(self, reverse_meter):
        guesses = [
            guess for guess, _ in reverse_meter.iter_guesses(limit=300)
        ]
        assert "drowssap" in guesses

    def test_sampling_consistent(self, reverse_meter):
        rng = random.Random(3)
        for _ in range(60):
            password, probability = reverse_meter.sample(rng)
            assert reverse_meter.probability(password) == pytest.approx(
                probability, rel=1e-12
            )

    def test_persistence_round_trip(self, reverse_meter, tmp_path):
        from repro.persistence import load_meter, save_meter
        path = str(tmp_path / "reverse.json")
        save_meter(reverse_meter, path)
        loaded = load_meter(path)
        assert loaded.config.allow_reverse
        assert loaded.probability(
            "drowssap"
        ) == reverse_meter.probability("drowssap")

    def test_update_phase_with_reverse(self, reverse_meter):
        # update() re-parses with the same reverse-aware parser.
        before = reverse_meter.grammar.reverse.count(True)
        meter = FuzzyPSM.train(
            BASE, TRAINING, config=FuzzyPSMConfig(allow_reverse=True)
        )
        meter.update("eworole" [::-1])  # fallback; no crash
        meter.update("nogard9")
        assert meter.grammar.reverse.count(True) >= before
