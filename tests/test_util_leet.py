"""Unit tests for the top-6 leet substitution rules (Table VI)."""

from repro.util.leet import (
    LEET_BY_LETTER,
    LEET_BY_SUBSTITUTE,
    LEET_PAIRS,
    LEET_RULE_NAMES,
    applicable_rules,
    apply_rules,
    deleet,
    leet_variants,
)


class TestTables:
    def test_exactly_six_rules(self):
        assert len(LEET_PAIRS) == 6
        assert LEET_RULE_NAMES == ("L1", "L2", "L3", "L4", "L5", "L6")

    def test_paper_pairs(self):
        # Table VI: a@ s$ o0 i1 e3 t7 in that priority order.
        assert LEET_BY_LETTER == {
            "a": "@", "s": "$", "o": "0", "i": "1", "e": "3", "t": "7",
        }

    def test_inverse_table_consistent(self):
        for letter, sub in LEET_BY_LETTER.items():
            assert LEET_BY_SUBSTITUTE[sub] == letter


class TestDeleet:
    def test_paper_example(self):
        base, rules = deleet("p@ssw0rd")
        assert base == "password"
        assert rules == frozenset({"L1", "L3"})

    def test_identity(self):
        base, rules = deleet("password")
        assert base == "password"
        assert rules == frozenset()

    def test_all_rules(self):
        base, rules = deleet("@$01 37")
        assert base == "asoi et"
        assert rules == frozenset({"L1", "L2", "L3", "L4", "L5", "L6"})

    def test_digits_that_are_substitutes(self):
        base, rules = deleet("1337")
        assert base == "ieet"
        assert rules == frozenset({"L4", "L5", "L6"})


class TestApply:
    def test_roundtrip(self):
        assert apply_rules("password", frozenset({"L1", "L3"})) == "p@ssw0rd"

    def test_applies_to_all_occurrences(self):
        assert apply_rules("sassy", frozenset({"L2"})) == "$a$$y"

    def test_no_rules_is_identity(self):
        assert apply_rules("password", frozenset()) == "password"


class TestApplicable:
    def test_rules_require_letter_presence(self):
        assert applicable_rules("xyz") == frozenset()
        assert applicable_rules("password") == frozenset(
            {"L1", "L2", "L3"}  # a, s, o (no i, no e, no t)
        )

    def test_variants_count(self):
        # "so" has two applicable rules -> 3 non-trivial variants.
        assert sorted(leet_variants("so")) == ["$0", "$o", "s0"]

    def test_variants_capped(self):
        variants = list(leet_variants("asoiet", max_variants=5))
        assert len(variants) == 5

    def test_variants_of_plain_word(self):
        assert list(leet_variants("xyz")) == []
