"""Unit tests for the prefix trie and fuzzy longest-prefix matching."""

import pytest

from repro.core.trie import PrefixTrie, toggle_partner


class TestInsertLookup:
    def test_insert_and_contains(self):
        trie = PrefixTrie()
        assert trie.insert("password")
        assert "password" in trie
        assert "passwor" not in trie

    def test_minimum_length_filter(self):
        trie = PrefixTrie(min_length=3)
        assert not trie.insert("ab")
        assert "ab" not in trie
        assert len(trie) == 0

    def test_duplicate_insert(self):
        trie = PrefixTrie(["abc"])
        assert not trie.insert("abc")
        assert len(trie) == 1

    def test_invalid_min_length(self):
        with pytest.raises(ValueError):
            PrefixTrie(min_length=0)

    def test_iter_words_sorted(self):
        trie = PrefixTrie(["zebra", "abc", "abcd"])
        assert list(trie.iter_words()) == ["abc", "abcd", "zebra"]

    def test_non_string_not_contained(self):
        trie = PrefixTrie(["abc"])
        assert 123 not in trie

    def test_unhashable_not_contained(self):
        assert ["abc"] not in PrefixTrie(["abc"])

    def test_insert_after_a_pointer_query_keeps_nodes_in_step(self):
        trie = PrefixTrie(["pass"])
        assert trie.longest_exact_prefix("password") == "pass"
        assert trie.insert("password")
        assert not trie.insert("password")
        assert trie.longest_exact_prefix("password1") == "password"
        assert trie.longest_fuzzy_match("P@ssw0rd").base == "password"
        assert "password" in trie


class TestExactPrefix:
    def test_longest_exact(self):
        trie = PrefixTrie(["pass", "password"])
        assert trie.longest_exact_prefix("password123") == "password"

    def test_shorter_fallback(self):
        trie = PrefixTrie(["pass", "password"])
        assert trie.longest_exact_prefix("passw1") == "pass"

    def test_no_match(self):
        trie = PrefixTrie(["abc"])
        assert trie.longest_exact_prefix("xyz") is None


class TestTogglePartner:
    def test_bidirectional(self):
        assert toggle_partner("a") == "@"
        assert toggle_partner("@") == "a"
        assert toggle_partner("0") == "o"

    def test_unpaired(self):
        assert toggle_partner("x") is None
        assert toggle_partner("2") is None


class TestFuzzyMatching:
    def test_exact_match_found(self):
        trie = PrefixTrie(["password"])
        match = trie.longest_fuzzy_match("password123")
        assert match.base == "password"
        assert match.length == 8
        assert not match.capitalized
        assert match.toggled_offsets == ()

    def test_capitalization_at_offset_zero(self):
        trie = PrefixTrie(["password"])
        match = trie.longest_fuzzy_match("Password123")
        assert match.base == "password"
        assert match.capitalized

    def test_capitalization_not_mid_segment(self):
        trie = PrefixTrie(["password"])
        # "pAssword": uppercase beyond offset 0 cannot match.
        assert trie.longest_fuzzy_match("pAssword") is None

    def test_leet_toggle(self):
        trie = PrefixTrie(["password"])
        match = trie.longest_fuzzy_match("p@ssw0rd")
        assert match.base == "password"
        assert match.toggled_offsets == (1, 5)

    def test_leet_toggle_reverse_direction(self):
        # Base dictionaries can contain substitute characters
        # (Table IV has B8 -> p@ssword); "a" then matches stored "@".
        trie = PrefixTrie(["p@ssword"])
        match = trie.longest_fuzzy_match("password")
        assert match.base == "p@ssword"
        assert match.toggled_offsets == (1,)

    def test_combined_cap_and_leet(self):
        trie = PrefixTrie(["password"])
        match = trie.longest_fuzzy_match("P@ssw0rd!!!")
        assert match.capitalized
        assert match.toggled_offsets == (1, 5)
        assert match.transformations == 3

    def test_longest_wins(self):
        trie = PrefixTrie(["pass", "password"])
        match = trie.longest_fuzzy_match("password")
        assert match.base == "password"

    def test_fewest_transformations_breaks_ties(self):
        # Both "p@ss" (0 toggles) and "pass" (1 toggle) match "p@ss".
        trie = PrefixTrie(["pass", "p@ss"])
        match = trie.longest_fuzzy_match("p@ssXYZ")
        assert match.base == "p@ss"
        assert match.transformations == 0

    def test_flags_disable_transformations(self):
        trie = PrefixTrie(["password"])
        assert trie.longest_fuzzy_match(
            "Password", allow_capitalization=False
        ) is None
        assert trie.longest_fuzzy_match(
            "p@ssword", allow_leet=False
        ) is None

    def test_all_matches_enumerated(self):
        trie = PrefixTrie(["pass", "password", "p@ss"])
        matches = trie.fuzzy_matches("p@ssword")
        bases = {m.base for m in matches}
        assert bases == {"pass", "password", "p@ss"}

    def test_no_match_returns_none(self):
        trie = PrefixTrie(["abc"])
        assert trie.longest_fuzzy_match("zzz") is None

    def test_empty_text(self):
        trie = PrefixTrie(["abc"])
        assert trie.longest_fuzzy_match("") is None
