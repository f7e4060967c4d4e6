"""Unit tests for the fuzzy PCFG grammar tables and derivations."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.grammar import (
    Derivation,
    DerivedSegment,
    FuzzyGrammar,
    count_parses,
    leet_rule_for_char,
    structure_label,
)
from repro.util.leet import LEET_RULE_INDEX, LEET_RULE_NAMES


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


#: Every leet character, both sides of all six pairs, plus characters
#: that belong to no pair.
BASE_ALPHABET = "a@s$o0i1e3t7" + "bxz9!"


@st.composite
def flat_parses(draw):
    """A flat parse whose toggles hold a base's leet offsets, and may
    hold a duplicated offset and an offset of a non-leet character."""
    segments = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        base = draw(st.text(alphabet=BASE_ALPHABET, min_size=1,
                            max_size=8))
        leet = [i for i, ch in enumerate(base) if ch in LEET_RULE_INDEX]
        other = [i for i, ch in enumerate(base)
                 if ch not in LEET_RULE_INDEX]
        toggled = draw(st.lists(st.sampled_from(leet), unique=True)) \
            if leet else []
        if toggled and draw(st.booleans()):
            toggled.append(toggled[0])
        if other and draw(st.booleans()):
            toggled.append(draw(st.sampled_from(other)))
        segments.append((base, draw(st.booleans()), tuple(toggled),
                         draw(st.booleans()), draw(st.booleans()),
                         draw(st.booleans())))
    return tuple(len(segment[0]) for segment in segments), tuple(segments)


@st.composite
def folds(draw):
    """Counted parses with repeats, cut into 1-3 consecutive batches."""
    pool = draw(st.lists(flat_parses(), min_size=1, max_size=6))
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(pool),
                  st.integers(min_value=1, max_value=5)),
        max_size=30,
    ))
    cuts = sorted(draw(st.lists(
        st.integers(min_value=0, max_value=len(pairs)), max_size=2,
    )))
    return [pairs[start:end]
            for start, end in zip([0] + cuts, cuts + [len(pairs)])]


def observed(batches):
    """The oracle: one :meth:`FuzzyGrammar.observe` per pair."""
    grammar = FuzzyGrammar()
    for pairs in batches:
        for parse, count in pairs:
            grammar.observe(parse, count)
    return grammar


def folded(batches):
    grammar = FuzzyGrammar()
    for pairs in batches:
        grammar.fold(count_parses(pairs))
    return grammar


def boolean_counts(grammar):
    tables = [grammar.capitalization, grammar.reverse, grammar.allcaps]
    tables += [grammar.leet[name] for name in LEET_RULE_NAMES]
    return [(table.count(True), table.count(False)) for table in tables]


def snapshot(grammar):
    return json.dumps(grammar.to_dict()), boolean_counts(grammar)


DIFFERENTIAL = settings(derandomize=True, deadline=None)


class TestBatchCounter:
    """``fold(count_parses(batch))`` against per-parse ``observe``."""

    @given(folds())
    @DIFFERENTIAL
    def test_folds_equal_per_parse_observe(self, batches):
        assert snapshot(folded(batches)) == snapshot(observed(batches))

    @given(folds(), st.integers(min_value=-2, max_value=0), st.data())
    @DIFFERENTIAL
    def test_count_below_one_raises_before_any_table_changes(
        self, batches, count, data
    ):
        grammar = folded(batches)
        before, epoch = snapshot(grammar), grammar.epoch
        pairs = [pair for batch in batches for pair in batch]
        at = data.draw(st.integers(min_value=0, max_value=len(pairs)))
        parse = pairs[0][0] if pairs else \
            ((3,), (("abc", False, (), False, False, False),))
        with pytest.raises(ValueError, match="positive"):
            grammar.fold(count_parses(
                pairs[:at] + [(parse, count)] + pairs[at:]
            ))
        assert snapshot(grammar) == before
        assert grammar.epoch == epoch

    @given(folds())
    @DIFFERENTIAL
    def test_empty_batch_changes_nothing(self, batches):
        grammar = folded(batches)
        before = snapshot(grammar)
        grammar.fold(count_parses([]))
        assert snapshot(grammar) == before
