"""Unit tests for the stronger-password suggestion engine."""

import pytest

from repro.core import FuzzyPSM
from repro.core.policy import PasswordPolicy
from repro.core.suggestions import (
    improvement_report,
    suggest_stronger,
)
from repro.meters.nist import NISTMeter


@pytest.fixture(scope="module")
def nist():
    return NISTMeter()


@pytest.fixture(scope="module")
def fuzzy():
    passwords = [
        "password", "password", "password1", "password123",
        "123456", "123456", "iloveyou", "dragon", "qwerty12",
    ]
    return FuzzyPSM.train(base_dictionary=passwords, training=passwords)


class TestBasicBehaviour:
    def test_suggestions_meet_target(self, nist):
        suggestions = suggest_stronger(nist, "abcdef", target_bits=18.0)
        assert suggestions
        for suggestion in suggestions:
            assert suggestion.entropy_bits >= 18.0

    def test_sorted_by_edit_count_then_strength(self, nist):
        suggestions = suggest_stronger(nist, "abcdef", target_bits=18.0,
                                       max_suggestions=10)
        keys = [(s.edit_count, s.probability) for s in suggestions]
        assert keys == sorted(keys)

    def test_deterministic(self, nist):
        first = suggest_stronger(nist, "abcdef", target_bits=18.0)
        second = suggest_stronger(nist, "abcdef", target_bits=18.0)
        assert [s.password for s in first] == [
            s.password for s in second
        ]

    def test_respects_max_suggestions(self, nist):
        suggestions = suggest_stronger(
            nist, "abcdef", target_bits=16.0, max_suggestions=3
        )
        assert len(suggestions) <= 3

    def test_original_never_suggested(self, nist):
        suggestions = suggest_stronger(nist, "abcdef", target_bits=10.0)
        assert all(s.password != "abcdef" for s in suggestions)

    def test_edits_described(self, nist):
        suggestions = suggest_stronger(nist, "abcdef", target_bits=18.0)
        for suggestion in suggestions:
            assert suggestion.edits
            assert all(isinstance(edit, str) for edit in suggestion.edits)


class TestAgainstTrainedMeter:
    def test_weak_training_password_improved(self, fuzzy):
        # "password" is the head of the training set; one edit should
        # push it out of the modelled guess space.
        suggestions = suggest_stronger(fuzzy, "password",
                                       target_bits=25.0)
        assert suggestions
        weak = fuzzy.probability("password")
        for suggestion in suggestions:
            assert suggestion.probability < weak

    def test_suggestion_probability_matches_meter(self, fuzzy):
        for suggestion in suggest_stronger(fuzzy, "password123",
                                           target_bits=25.0):
            assert fuzzy.probability(
                suggestion.password
            ) == suggestion.probability


class TestConstraints:
    def test_policy_filtering(self, nist):
        policy = PasswordPolicy(min_length=6, max_length=7)
        suggestions = suggest_stronger(
            nist, "abcdef", target_bits=16.0, policy=policy,
            max_suggestions=10,
        )
        for suggestion in suggestions:
            assert policy.is_allowed(suggestion.password)

    def test_unreachable_target_returns_empty(self, nist):
        suggestions = suggest_stronger(
            nist, "ab", target_bits=500.0, max_edits=1
        )
        assert suggestions == []

    def test_multi_edit_composition(self, nist):
        # A short password needs two insertions to reach the target.
        suggestions = suggest_stronger(
            nist, "abcd", target_bits=16.5, max_edits=2,
            max_suggestions=10,
        )
        assert suggestions
        assert any(s.edit_count == 2 for s in suggestions)

    def test_validation(self, nist):
        with pytest.raises(ValueError):
            suggest_stronger(nist, "", target_bits=10.0)
        with pytest.raises(ValueError):
            suggest_stronger(nist, "abc", target_bits=0.0)
        with pytest.raises(ValueError):
            suggest_stronger(nist, "abc", target_bits=10.0, max_edits=0)


class TestReport:
    def test_report_lines(self, nist):
        suggestions = suggest_stronger(nist, "abcdef", target_bits=18.0,
                                       max_suggestions=2)
        lines = improvement_report(nist, "abcdef", suggestions)
        assert lines[0].startswith("original")
        assert len(lines) == 1 + len(suggestions)

    def test_report_no_suggestions(self, nist):
        lines = improvement_report(nist, "abcdef", [])
        assert any("no qualifying" in line for line in lines)
