"""Property-based tests (hypothesis) for the fuzzy-PCFG core."""

import random
import string

from hypothesis import given, settings, strategies as st

from repro.core import FuzzyPSM
from repro.core.grammar import DerivedSegment, FuzzyGrammar
from repro.core.trie import PrefixTrie
from repro.util.leet import LEET_BY_LETTER

printable = st.text(
    alphabet=string.ascii_letters + string.digits + "!@#$%^&*()_+-=.",
    min_size=1, max_size=16,
)

lower_words = st.text(
    alphabet=string.ascii_lowercase, min_size=3, max_size=12
)


class TestPrefixTrieProperties:
    @given(st.lists(lower_words, min_size=1, max_size=30))
    def test_every_inserted_word_is_found(self, words):
        trie = PrefixTrie()
        for word in words:
            trie.insert(word)
        for word in words:
            assert word in trie

    @given(st.lists(lower_words, min_size=1, max_size=30), lower_words)
    def test_longest_prefix_is_a_real_prefix(self, words, query):
        trie = PrefixTrie()
        for word in words:
            trie.insert(word)
        result = trie.longest_exact_prefix(query)
        if result is not None:
            assert query.startswith(result)
            assert result in trie

    @given(st.lists(lower_words, min_size=1, max_size=30), lower_words)
    def test_longest_prefix_is_maximal(self, words, query):
        trie = PrefixTrie()
        for word in words:
            trie.insert(word)
        result = trie.longest_exact_prefix(query)
        longest_manual = max(
            (w for w in set(words) if query.startswith(w)),
            key=len, default=None,
        )
        assert result == longest_manual


class TestGrammarProperties:
    @given(st.lists(printable, min_size=1, max_size=25))
    @settings(max_examples=50)
    def test_training_passwords_always_derivable(self, passwords):
        meter = FuzzyPSM.train(
            base_dictionary=passwords, training=passwords
        )
        for password in passwords:
            assert meter.probability(password) > 0.0

    @given(st.lists(printable, min_size=2, max_size=25))
    @settings(max_examples=50)
    def test_probabilities_bounded(self, passwords):
        meter = FuzzyPSM.train(
            base_dictionary=passwords[:1], training=passwords
        )
        for password in passwords:
            assert 0.0 <= meter.probability(password) <= 1.0

    @given(st.lists(printable, min_size=1, max_size=15), printable)
    @settings(max_examples=50)
    def test_accept_makes_password_derivable(self, passwords, new):
        meter = FuzzyPSM.train(
            base_dictionary=passwords, training=passwords
        )
        meter.update(new)
        assert meter.probability(new) > 0.0

    @given(st.lists(printable, min_size=1, max_size=15), printable,
           st.integers(min_value=1, max_value=50))
    @settings(max_examples=50)
    def test_accept_monotone_in_count(self, passwords, new, count):
        meter_once = FuzzyPSM.train(
            base_dictionary=passwords, training=passwords
        )
        meter_many = FuzzyPSM.train(
            base_dictionary=passwords, training=passwords
        )
        meter_once.update(new)
        meter_many.update(new, count=count + 1)
        assert (
            meter_many.probability(new) >= meter_once.probability(new)
        )

    @given(st.lists(printable, min_size=1, max_size=20))
    @settings(max_examples=30)
    def test_serialisation_round_trip(self, passwords):
        meter = FuzzyPSM.train(
            base_dictionary=passwords, training=passwords
        )
        clone = FuzzyGrammar.from_dict(meter.grammar.to_dict())
        for password in passwords:
            parsed = meter.parse(password).to_derivation()
            assert clone.derivation_probability(
                parsed
            ) == meter.grammar.derivation_probability(parsed)


class TestDerivedSegmentProperties:
    @given(lower_words)
    def test_capitalization_round_trip(self, base):
        segment = DerivedSegment(base, capitalized=True)
        surface = segment.surface()
        assert surface[:1] == base[:1].upper()
        assert surface[1:] == base[1:]

    @given(lower_words)
    def test_leet_toggles_are_involutive(self, base):
        offsets = tuple(
            i for i, ch in enumerate(base) if ch in LEET_BY_LETTER
        )
        toggled = DerivedSegment(base, False, offsets).surface()
        # Toggling every leet-able character changes exactly those
        # positions and nothing else.
        for i, (a, b) in enumerate(zip(base, toggled)):
            if i in offsets:
                assert a != b
                assert LEET_BY_LETTER[a] == b
            else:
                assert a == b

    @given(lower_words)
    def test_surface_length_preserved(self, base):
        offsets = tuple(
            i for i, ch in enumerate(base) if ch in LEET_BY_LETTER
        )
        segment = DerivedSegment(base, True, offsets)
        assert len(segment.surface()) == len(base)


class TestParserProperties:
    @given(st.lists(lower_words, min_size=1, max_size=20), printable)
    @settings(max_examples=60)
    def test_parse_reassembles_any_surface(self, words, password):
        from repro.core.parser import FuzzyParser
        trie = PrefixTrie(words)
        parser = FuzzyParser(trie)
        parse = parser.parse(password)
        assert parse.to_derivation().surface() == password

    @given(st.lists(lower_words, min_size=1, max_size=20), printable)
    @settings(max_examples=60)
    def test_structure_lengths_sum_to_password_length(self, words,
                                                      password):
        from repro.core.parser import FuzzyParser
        parser = FuzzyParser(PrefixTrie(words))
        parse = parser.parse(password)
        assert sum(parse.structure) == len(password)

    @given(lower_words)
    @settings(max_examples=60)
    def test_capitalized_word_matches_with_flag(self, word):
        from repro.core.parser import FuzzyParser
        trie = PrefixTrie([word])
        parser = FuzzyParser(trie)
        surface = word[:1].upper() + word[1:]
        parse = parser.parse(surface)
        first = parse.segments[0]
        if word[:1].isalpha():
            assert first.base == word
            assert first.capitalized

    @given(lower_words)
    @settings(max_examples=60)
    def test_leet_variant_matches_stored_word(self, word):
        from repro.core.parser import FuzzyParser
        offsets = [
            i for i, ch in enumerate(word) if ch in LEET_BY_LETTER
        ]
        if not offsets:
            return
        offset = offsets[0]
        surface = (
            word[:offset] + LEET_BY_LETTER[word[offset]]
            + word[offset + 1:]
        )
        parser = FuzzyParser(PrefixTrie([word]))
        parse = parser.parse(surface)
        first = parse.segments[0]
        # The trie word must be findable through the leet toggle; the
        # parser may prefer an equally long parse, but the surface
        # must reassemble regardless.
        assert parse.to_derivation().surface() == surface
        if first.base == word:
            assert offset in first.toggled_offsets


class TestTrieFuzzyMatchProperties:
    @given(st.lists(lower_words, min_size=1, max_size=15), lower_words)
    @settings(max_examples=60)
    def test_fuzzy_superset_of_exact(self, words, query):
        trie = PrefixTrie(words)
        exact = trie.longest_exact_prefix(query)
        fuzzy = trie.longest_fuzzy_match(query)
        if exact is not None:
            assert fuzzy is not None
            assert fuzzy.length >= len(exact)

    @given(st.lists(lower_words, min_size=1, max_size=15), lower_words)
    @settings(max_examples=60)
    def test_match_surface_is_query_prefix(self, words, query):
        trie = PrefixTrie(words)
        match = trie.longest_fuzzy_match(query)
        if match is not None:
            segment = DerivedSegment(
                match.base, match.capitalized, match.toggled_offsets
            )
            assert query.startswith(segment.surface())


class TestSamplingProperties:
    @given(st.lists(printable, min_size=3, max_size=15),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_sample_measure_consistency(self, passwords, seed):
        meter = FuzzyPSM.train(
            base_dictionary=passwords, training=passwords
        )
        rng = random.Random(seed)
        password, probability = meter.sample(rng)
        measured = meter.probability(password)
        assert abs(measured - probability) <= 1e-12 * max(
            measured, probability
        )
