"""Unit tests for zxcvbn entropy scoring and the minimum-entropy DP."""

import math

import pytest

from repro.meters.zxcvbn.matching import Match, MatchCollector
from repro.meters.zxcvbn.scoring import (
    bruteforce_charspace,
    date_entropy,
    dictionary_entropy,
    match_entropy,
    minimum_entropy_match_sequence,
    repeat_entropy,
    sequence_entropy,
    spatial_entropy,
    uppercase_entropy,
)


class TestBruteforceCharspace:
    def test_lower_only(self):
        assert bruteforce_charspace("abc") == 26

    def test_lower_and_digits(self):
        assert bruteforce_charspace("abc123") == 36

    def test_all_classes(self):
        assert bruteforce_charspace("aB1!") == 95

    def test_empty_is_floor_one(self):
        assert bruteforce_charspace("") == 1


class TestUppercaseEntropy:
    def test_all_lower_is_free(self):
        assert uppercase_entropy("password") == 0.0

    def test_first_capital_one_bit(self):
        assert uppercase_entropy("Password") == 1.0

    def test_all_caps_one_bit(self):
        assert uppercase_entropy("PASSWORD") == 1.0

    def test_last_capital_one_bit(self):
        assert uppercase_entropy("passworD") == 1.0

    def test_mixed_capitals_cost_more(self):
        assert uppercase_entropy("pAsSwOrD") > 1.0

    def test_digits_only_free(self):
        assert uppercase_entropy("123456") == 0.0


class TestDictionaryEntropy:
    def _match(self, token, rank, **kwargs):
        return Match(pattern="dictionary", i=0, j=len(token) - 1,
                     token=token, matched_word=token.lower(), rank=rank,
                     **kwargs)

    def test_rank_term(self):
        assert dictionary_entropy(self._match("password", 1)) == 0.0
        assert dictionary_entropy(
            self._match("dragon", 64)
        ) == pytest.approx(6.0)

    def test_capitalization_term(self):
        plain = dictionary_entropy(self._match("password", 8))
        capped = dictionary_entropy(self._match("Password", 8))
        assert capped == pytest.approx(plain + 1.0)

    def test_reversed_term(self):
        plain = dictionary_entropy(self._match("password", 8))
        backwards = dictionary_entropy(
            self._match("drowssap", 8, reversed=True)
        )
        assert backwards == pytest.approx(plain + 1.0)

    def test_l33t_term_at_least_one_bit(self):
        leet = self._match("p@ssword", 8, l33t=True,
                           substitutions={"@": "a"})
        plain = dictionary_entropy(self._match("password", 8))
        assert dictionary_entropy(leet) >= plain + 1.0


class TestPatternEntropies:
    def test_repeat_entropy(self):
        match = Match(pattern="repeat", i=0, j=4, token="aaaaa")
        assert repeat_entropy(match) == pytest.approx(math.log2(26 * 5))

    def test_sequence_entropy_trivial_start(self):
        match = Match(pattern="sequence", i=0, j=5, token="abcdef",
                      sequence_name="lower", ascending=True)
        assert sequence_entropy(match) == pytest.approx(
            1.0 + math.log2(6)
        )

    def test_sequence_entropy_descending_penalty(self):
        up = Match(pattern="sequence", i=0, j=4, token="56789",
                   sequence_name="digits", ascending=True)
        down = Match(pattern="sequence", i=0, j=4, token="98765",
                     sequence_name="digits", ascending=False)
        assert sequence_entropy(down) == pytest.approx(
            sequence_entropy(up) + 1.0
        )

    def test_spatial_entropy_grows_with_length(self):
        short = Match(pattern="spatial", i=0, j=3, token="qwer",
                      graph="qwerty", turns=1)
        long = Match(pattern="spatial", i=0, j=7, token="qwertyui",
                     graph="qwerty", turns=1)
        assert spatial_entropy(long) > spatial_entropy(short)

    def test_spatial_entropy_grows_with_turns(self):
        straight = Match(pattern="spatial", i=0, j=5, token="qwerty",
                         graph="qwerty", turns=1)
        twisty = Match(pattern="spatial", i=0, j=5, token="qwedcv",
                       graph="qwerty", turns=3)
        assert spatial_entropy(twisty) > spatial_entropy(straight)

    def test_date_entropy_recent_year(self):
        match = Match(pattern="date", i=0, j=7, token="13051984", year=1984)
        assert date_entropy(match) == pytest.approx(
            math.log2(31 * 12 * 130)
        )

    def test_date_entropy_separator_penalty(self):
        bare = Match(pattern="date", i=0, j=5, token="130584", year=1984)
        sep = Match(pattern="date", i=0, j=7, token="13/05/84", year=1984,
                    separator="/")
        assert date_entropy(sep) == pytest.approx(date_entropy(bare) + 2.0)

    def test_match_entropy_caches(self):
        match = Match(pattern="repeat", i=0, j=2, token="aaa")
        value = match_entropy(match)
        assert match.entropy == value
        assert match_entropy(match) == value


class TestMinimumEntropySearch:
    @pytest.fixture(scope="class")
    def collector(self):
        return MatchCollector({"passwords": {"password": 1, "dragon": 7}})

    def test_empty_password(self, collector):
        result = minimum_entropy_match_sequence("", [])
        assert result.entropy == 0.0
        assert result.sequence == []

    def test_no_matches_pure_bruteforce(self, collector):
        result = minimum_entropy_match_sequence("zqvkx", [])
        assert result.entropy == pytest.approx(5 * math.log2(26))
        assert len(result.sequence) == 1
        assert result.sequence[0].pattern == "bruteforce"

    def test_dictionary_beats_bruteforce(self, collector):
        password = "password"
        result = minimum_entropy_match_sequence(
            password, collector.all_matches(password)
        )
        assert result.entropy < 8 * math.log2(26)
        assert any(m.pattern == "dictionary" for m in result.sequence)

    def test_cover_is_contiguous(self, collector):
        password = "xxpasswordyy"
        result = minimum_entropy_match_sequence(
            password, collector.all_matches(password)
        )
        cursor = 0
        for match in result.sequence:
            assert match.i == cursor
            cursor = match.j + 1
        assert cursor == len(password)

    def test_gaps_filled_with_bruteforce(self, collector):
        password = "xxpasswordyy"
        result = minimum_entropy_match_sequence(
            password, collector.all_matches(password)
        )
        patterns = [m.pattern for m in result.sequence]
        assert patterns == ["bruteforce", "dictionary", "bruteforce"]

    def test_entropy_equals_cover_sum(self, collector):
        password = "xxpasswordyy"
        result = minimum_entropy_match_sequence(
            password, collector.all_matches(password)
        )
        assert result.entropy == pytest.approx(
            sum(m.entropy for m in result.sequence)
        )

    def test_two_words(self, collector):
        password = "passworddragon"
        result = minimum_entropy_match_sequence(
            password, collector.all_matches(password)
        )
        words = [
            m.matched_word
            for m in result.sequence
            if m.pattern == "dictionary"
        ]
        assert words == ["password", "dragon"]
