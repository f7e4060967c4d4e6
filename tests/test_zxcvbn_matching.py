"""Unit tests for the zxcvbn pattern matchers."""

import pytest

from repro.meters.zxcvbn.matching import MatchCollector


@pytest.fixture(scope="module")
def collector():
    return MatchCollector(
        {
            "passwords": {"password": 1, "dragon": 7, "love": 20},
            "english": {"correct": 100, "horse": 200, "battery": 300},
        }
    )


def _patterns(matches):
    return {m.pattern for m in matches}


class TestDictionaryMatcher:
    def test_exact_word(self, collector):
        matches = collector.dictionary_match("password")
        assert any(
            m.matched_word == "password" and m.rank == 1 for m in matches
        )

    def test_substring_word(self, collector):
        matches = collector.dictionary_match("xxdragonyy")
        match = next(m for m in matches if m.matched_word == "dragon")
        assert (match.i, match.j) == (2, 7)
        assert match.token == "dragon"

    def test_case_insensitive(self, collector):
        matches = collector.dictionary_match("PaSsWoRd")
        assert any(m.matched_word == "password" for m in matches)
        # Token preserves the original casing.
        assert any(m.token == "PaSsWoRd" for m in matches)

    def test_multiple_dictionaries(self, collector):
        matches = collector.dictionary_match("correcthorse")
        words = {m.matched_word for m in matches}
        assert {"correct", "horse"} <= words

    def test_no_match(self, collector):
        assert collector.dictionary_match("zzqqkkvv") == []


class TestReverseDictionaryMatcher:
    def test_reversed_word_found(self, collector):
        matches = collector.reverse_dictionary_match("drowssap")
        match = next(m for m in matches if m.matched_word == "password")
        assert match.reversed
        assert match.token == "drowssap"
        assert (match.i, match.j) == (0, 7)

    def test_reversed_substring_offsets(self, collector):
        matches = collector.reverse_dictionary_match("xxnogardyy")
        match = next(m for m in matches if m.matched_word == "dragon")
        assert (match.i, match.j) == (2, 7)


class TestL33tMatcher:
    def test_simple_substitution(self, collector):
        matches = collector.l33t_match("p@ssword")
        match = next(m for m in matches if m.matched_word == "password")
        assert match.l33t
        assert match.substitutions == {"@": "a"}

    def test_multiple_substitutions(self, collector):
        matches = collector.l33t_match("p@ssw0rd")
        match = next(m for m in matches if m.matched_word == "password")
        assert match.substitutions == {"@": "a", "0": "o"}

    def test_no_substitution_no_match(self, collector):
        assert collector.l33t_match("password") == []

    def test_digit_one_as_letter(self, collector):
        collector2 = MatchCollector({"words": {"il": 3, "ill": 5}})
        matches = collector2.l33t_match("1ll")
        assert any(m.matched_word == "ill" for m in matches)


class TestSpatialMatcher:
    def test_qwerty_run(self, collector):
        matches = collector.spatial_match("qwerty")
        match = next(m for m in matches if m.graph == "qwerty")
        assert match.token == "qwerty"
        assert match.turns == 1

    def test_run_with_turn(self, collector):
        matches = collector.spatial_match("qwedcv")
        match = next(m for m in matches if m.graph == "qwerty")
        assert match.turns >= 2

    def test_short_runs_ignored(self, collector):
        # Length-2 adjacency is not a spatial pattern.
        matches = [
            m for m in collector.spatial_match("qwxx") if m.graph == "qwerty"
        ]
        assert matches == []

    def test_shifted_count(self, collector):
        matches = collector.spatial_match("QWErty")
        match = next(m for m in matches if m.graph == "qwerty")
        assert match.shifted_count == 3


class TestRepeatMatcher:
    def test_triple_repeat(self, collector):
        matches = collector.repeat_match("aaa")
        assert len(matches) == 1
        assert matches[0].token == "aaa"

    def test_double_not_matched(self, collector):
        assert collector.repeat_match("aab") == []

    def test_repeat_inside(self, collector):
        matches = collector.repeat_match("xy11111z")
        assert matches[0].token == "11111"
        assert (matches[0].i, matches[0].j) == (2, 6)


class TestSequenceMatcher:
    def test_ascending_letters(self, collector):
        matches = collector.sequence_match("abcdef")
        match = matches[0]
        assert match.token == "abcdef"
        assert match.ascending
        assert match.sequence_name == "lower"

    def test_descending_digits(self, collector):
        matches = collector.sequence_match("98765")
        match = matches[0]
        assert match.token == "98765"
        assert not match.ascending
        assert match.sequence_name == "digits"

    def test_short_sequence_ignored(self, collector):
        assert collector.sequence_match("ab1") == []

    def test_sequence_inside(self, collector):
        matches = collector.sequence_match("xx456yy")
        assert any(m.token == "456" for m in matches)


class TestDateMatcher:
    def test_four_digit_year(self, collector):
        matches = collector.date_match("born1984ok")
        assert any(m.year == 1984 for m in matches)

    def test_six_digit_date(self, collector):
        matches = collector.date_match("130584")
        assert any(m.year == 1984 for m in matches)

    def test_eight_digit_date(self, collector):
        matches = collector.date_match("13051984")
        assert any(m.year == 1984 for m in matches)

    def test_separated_date(self, collector):
        matches = collector.date_match("13/05/1984")
        match = next(m for m in matches if m.separator == "/")
        assert match.year == 1984

    def test_two_digit_year_normalised(self, collector):
        matches = collector.date_match("1/5/84")
        assert any(m.year == 1984 for m in matches)
        # Ambiguous two-digit parts: the matcher conservatively keeps
        # the smallest plausible year among the candidate readings.
        matches = collector.date_match("1/5/05")
        assert any(
            m.year is not None and 2000 <= m.year <= 2005 for m in matches
        )

    def test_invalid_date_rejected(self, collector):
        # 9999 is not a plausible year; 99/99 not a day/month.
        assert all(m.year != 9999 for m in collector.date_match("9999"))


class TestAllMatches:
    def test_aggregates_every_matcher(self, collector):
        matches = collector.all_matches("p@ssword1984qwerty111")
        patterns = _patterns(matches)
        assert "dictionary" in patterns
        assert "date" in patterns
        assert "spatial" in patterns
        assert "repeat" in patterns

    def test_sorted_by_position(self, collector):
        matches = collector.all_matches("passworddragon")
        positions = [(m.i, m.j) for m in matches]
        assert positions == sorted(positions)

    def test_empty_password(self, collector):
        assert collector.all_matches("") == []
