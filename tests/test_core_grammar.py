"""Unit tests for the fuzzy PCFG grammar tables and derivations."""

import random

import pytest

from repro.core.grammar import (
    Derivation,
    DerivedSegment,
    FuzzyGrammar,
    leet_rule_for_char,
    structure_label,
)


def derivation(*segments):
    return Derivation(tuple(segments))


class TestLeetRuleLookup:
    def test_letters_and_substitutes_share_rule(self):
        assert leet_rule_for_char("a") == "L1"
        assert leet_rule_for_char("@") == "L1"
        assert leet_rule_for_char("s") == "L2"
        assert leet_rule_for_char("$") == "L2"
        assert leet_rule_for_char("o") == "L3"
        assert leet_rule_for_char("0") == "L3"
        assert leet_rule_for_char("1") == "L4"
        assert leet_rule_for_char("3") == "L5"
        assert leet_rule_for_char("7") == "L6"

    def test_unpaired_characters(self):
        for ch in "xyz29!#BZ":
            assert leet_rule_for_char(ch) is None


class TestDerivedSegment:
    def test_surface_plain(self):
        assert DerivedSegment("password").surface() == "password"

    def test_surface_capitalized(self):
        assert DerivedSegment("password", True).surface() == "Password"

    def test_surface_with_toggles(self):
        segment = DerivedSegment("password", False, (1, 5))
        assert segment.surface() == "p@ssw0rd"

    def test_surface_paper_figure_11(self):
        # Fig. 11: B8 -> p@ssword with leet o->0 gives p@ssw0rd.
        segment = DerivedSegment("p@ssword", False, (5,))
        assert segment.surface() == "p@ssw0rd"

    def test_toggle_on_unpaired_offset_rejected(self):
        with pytest.raises(ValueError):
            DerivedSegment("password", False, (0,)).surface()  # 'p'

    def test_structure(self):
        d = derivation(DerivedSegment("p@ssword"), DerivedSegment("1"))
        assert d.structure == (8, 1)
        assert structure_label(d.structure) == "B8 B1"


class TestObserveAndProbability:
    def test_single_observation_probability_one_ish(self):
        grammar = FuzzyGrammar()
        d = derivation(DerivedSegment("password"))
        grammar.observe(d.flat())
        # Structure, terminal and cap probabilities are all 1; leet
        # factors are all P(No)=1.
        assert grammar.derivation_probability(d) == pytest.approx(1.0)

    def test_unseen_structure_is_zero(self):
        grammar = FuzzyGrammar()
        grammar.observe(derivation(DerivedSegment("password")).flat())
        two_seg = derivation(DerivedSegment("password"),
                             DerivedSegment("123"))
        assert grammar.derivation_probability(two_seg) == 0.0

    def test_unseen_terminal_is_zero(self):
        grammar = FuzzyGrammar()
        grammar.observe(derivation(DerivedSegment("password")).flat())
        assert grammar.derivation_probability(
            derivation(DerivedSegment("passw0rd"))
        ) == 0.0

    def test_structure_probabilities(self):
        grammar = FuzzyGrammar()
        grammar.observe(derivation(DerivedSegment("password")).flat(), count=3)
        grammar.observe(
            derivation(DerivedSegment("123456"), DerivedSegment("abc")).flat()
        )
        assert grammar.structure_probability((8,)) == pytest.approx(0.75)
        assert grammar.structure_probability((6, 3)) == pytest.approx(0.25)

    def test_capitalization_counted_per_segment(self):
        grammar = FuzzyGrammar()
        grammar.observe(
            derivation(DerivedSegment("password", True),
                       DerivedSegment("123")).flat()
        )
        # One Yes (password) and one No (123).
        assert grammar.capitalization_probability(True) == pytest.approx(0.5)

    def test_leet_counted_per_character(self):
        grammar = FuzzyGrammar()
        # "password" has a(L1), s(L2) x2, o(L3); toggle only the o.
        grammar.observe(
            derivation(DerivedSegment("password", False, (5,))).flat()
        )
        assert grammar.leet_probability("L3", True) == 1.0
        assert grammar.leet_probability("L2", False) == 1.0
        assert grammar.leet_probability("L1", False) == 1.0

    def test_weighted_observation(self):
        grammar = FuzzyGrammar()
        grammar.observe(derivation(DerivedSegment("aaa")).flat(), count=9)
        grammar.observe(derivation(DerivedSegment("bbb")).flat(), count=1)
        assert grammar.terminal_probability("aaa") == pytest.approx(0.9)

    def test_update_shifts_probabilities(self):
        grammar = FuzzyGrammar()
        grammar.observe(derivation(DerivedSegment("aaa")).flat())
        before = grammar.terminal_probability("aaa")
        grammar.observe(derivation(DerivedSegment("bbb")).flat())
        assert grammar.terminal_probability("aaa") < before


class TestRuleTable:
    def test_rows_cover_all_tables(self):
        grammar = FuzzyGrammar()
        grammar.observe(
            derivation(DerivedSegment("password", True, (5,))).flat()
        )
        rows = grammar.rule_table()
        lhs = {row[0] for row in rows}
        assert "S" in lhs
        assert "B8" in lhs
        assert "Capitalize" in lhs
        assert "L3" in lhs

    def test_lhs_probabilities_sum_to_one(self):
        grammar = FuzzyGrammar()
        grammar.observe(derivation(DerivedSegment("aaa")).flat(), count=2)
        grammar.observe(derivation(DerivedSegment("bbbb")).flat())
        rows = grammar.rule_table()
        by_lhs = {}
        for lhs, _, probability in rows:
            by_lhs.setdefault(lhs, 0.0)
            by_lhs[lhs] += probability
        for lhs, total in by_lhs.items():
            assert total == pytest.approx(1.0), lhs


class TestSampling:
    def test_sample_probability_matches_measure(self):
        grammar = FuzzyGrammar()
        grammar.observe(derivation(DerivedSegment("password")).flat(), count=5)
        grammar.observe(derivation(DerivedSegment("dragon1")).flat(), count=5)
        rng = random.Random(3)
        for _ in range(50):
            _, probability = grammar.sample(rng)
            assert probability > 0

    def test_sample_untrained_raises(self):
        with pytest.raises(ValueError):
            FuzzyGrammar().sample(random.Random(0))


class TestSerialisation:
    def test_roundtrip(self):
        grammar = FuzzyGrammar()
        grammar.observe(
            derivation(DerivedSegment("password", True, (5,)),
                       DerivedSegment("123")).flat(),
            count=4,
        )
        clone = FuzzyGrammar.from_dict(grammar.to_dict())
        d = derivation(DerivedSegment("password", True, (5,)),
                       DerivedSegment("123"))
        assert clone.derivation_probability(d) == pytest.approx(
            grammar.derivation_probability(d)
        )
        assert clone.total_passwords == grammar.total_passwords
