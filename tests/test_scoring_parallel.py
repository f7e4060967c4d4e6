"""Differential tests for the frozen scoring kernel.

:class:`~repro.core.frozen.FrozenGrammar` is a compiled snapshot of
the fuzzy grammar's count tables that must score every derivation
**bit-identically** to :meth:`FuzzyGrammar.derivation_probability` — it
is an execution strategy, not a model change.  The suite pits the
kernel, its refresh after an update, the batch path
(``probability_many``) and the NIST/KeePSM batch overrides against
their references.

As in :mod:`tests.test_differential_parsing`, the fast paths are pit
against their references on generated inputs with
``derandomize=True``, so failures replay identically everywhere.
"""

from __future__ import annotations

from array import array
from dataclasses import replace

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repro.core.frozen import FrozenGrammar  # noqa: E402
from repro.core.grammar import (  # noqa: E402
    Derivation,
    DerivedSegment,
    FuzzyGrammar,
)
from repro.core.meter import FuzzyPSM, FuzzyPSMConfig  # noqa: E402
from repro.core.trie import PrefixTrie  # noqa: E402
from repro.meters.keepsm import KeePSMMeter  # noqa: E402
from repro.meters.nist import NISTMeter  # noqa: E402
from repro import obs  # noqa: E402

from repro.util.leet import leet_run  # noqa: E402

from tests.conftest import BASE_DICTIONARY, TRAINING_PASSWORDS  # noqa: E402
from tests.enumeration_oracle import reference_guesses  # noqa: E402
from tests.test_differential_parsing import (  # noqa: E402
    PASSWORDS,
    leet_dense,
)

DETERMINISTIC = settings(max_examples=150, deadline=None,
                         derandomize=True)

_METER = FuzzyPSM.train(BASE_DICTIONARY, TRAINING_PASSWORDS)


class TestFrozenKernel:
    @given(password=PASSWORDS)
    @DETERMINISTIC
    def test_bit_identical_to_dict_kernel(self, password):
        parsed = _METER.parse(password)
        exact = _METER.grammar.derivation_probability(parsed.to_derivation())
        fast = _METER.frozen_grammar().derivation_probability(parsed.flat)
        # Bitwise equality, not isclose: the frozen kernel replays the
        # reference multiplication order factor for factor.
        assert fast == exact

    @given(password=PASSWORDS)
    @DETERMINISTIC
    def test_structure_and_terminal_views_agree(self, password):
        derivation = _METER.parse(password).to_derivation()
        frozen = _METER.frozen_grammar()
        grammar = _METER.grammar
        assert frozen.structure_probability(derivation.structure) == \
            grammar.structure_probability(derivation.structure)
        for segment in derivation.segments:
            assert frozen.terminal_probability(segment.base) == \
                grammar.terminal_probability(segment.base)

    def test_snapshot_is_cached_while_grammar_is_unchanged(self):
        meter = FuzzyPSM.train(BASE_DICTIONARY, TRAINING_PASSWORDS)
        first = meter.frozen_grammar()
        assert meter.frozen_grammar() is first
        assert first.is_current(meter.grammar)

    def test_update_invalidates_the_snapshot(self):
        meter = FuzzyPSM.train(BASE_DICTIONARY, TRAINING_PASSWORDS)
        stale = meter.frozen_grammar()
        meter.update("brandnewpassword7")
        assert not stale.is_current(meter.grammar)
        fresh = meter.frozen_grammar()
        assert fresh is not stale
        assert fresh.is_current(meter.grammar)
        parsed = meter.parse("brandnewpassword7")
        assert fresh.derivation_probability(parsed.flat) == \
            meter.grammar.derivation_probability(parsed.to_derivation())

    def test_accept_invalidates_the_snapshot(self):
        meter = FuzzyPSM.train(BASE_DICTIONARY, TRAINING_PASSWORDS)
        stale = meter.frozen_grammar()
        meter.update("password1")
        assert not stale.is_current(meter.grammar)
        assert meter.probability_many(["password1"]) == \
            [meter.probability("password1")]

    def test_counts_and_repr_reflect_the_tables(self):
        frozen = _METER.frozen_grammar()
        grammar = _METER.grammar
        assert frozen.structure_count == \
            sum(1 for _ in grammar.structures.items())
        assert frozen.terminal_count == sum(
            sum(1 for _ in dist.items())
            for dist in grammar.terminals.values()
        )
        assert "FrozenGrammar" in repr(frozen)


#: Letters that start no base-dictionary word, so a run of them parses
#: as one segment of exactly its own length.
_PLAIN = "bcfghjkvxz"


@st.composite
def refresh_password(draw) -> str:
    """1-3 chunks, each a transformed dictionary word (leet, capitalized,
    with suffixes), a plain letter run or a digit run, kept as drawn,
    all-capsed or reversed — every rule the refresh must carry."""
    chunks = []
    for _ in range(draw(st.integers(1, 3))):
        chunk = draw(st.one_of(
            leet_dense(),
            st.text(_PLAIN, min_size=1, max_size=12),
            st.text("0123456789", min_size=1, max_size=8),
        ))
        shape = draw(st.sampled_from(("as drawn", "all caps", "reversed")))
        if shape == "all caps":
            chunk = chunk.upper()
        elif shape == "reversed":
            chunk = chunk[::-1]
        chunks.append(chunk)
    return "".join(chunks)


_REFRESH_CONFIG = FuzzyPSMConfig(allow_reverse=True, allow_allcaps=True)

#: Every kind of update the refresh handles differently.
_UPDATE_KINDS = frozenset({
    "new structure", "new length", "new base at existing length",
    "repeated base", "count > 1",
})


def _tables(frozen):
    """Every compiled table of ``frozen`` as comparable values.

    Dict items keep intern order, and probability columns compare as
    bytes, so two snapshots are equal only when built alike bit for
    bit.
    """
    terminals = {}
    for length in frozen.terminal_lengths():
        index, probabilities, rules = frozen.terminal_table(length)
        terminals[length] = (
            list(index.items()), array("d", probabilities).tobytes(), rules,
        )
    return {
        "structures": list(frozen.structure_table().items()),
        "terminals": terminals,
        "capitalization": frozen.capitalization_pair,
        "reverse": frozen.reverse_pair,
        "allcaps": frozen.allcaps_pair,
        "leet": frozen.leet_pairs,
    }


def _update_kinds(grammar, derivation, count):
    """Which kinds of update folding ``derivation`` into ``grammar`` is."""
    kinds = set()
    if derivation.structure not in grammar.structures:
        kinds.add("new structure")
    for segment in derivation.segments:
        table = grammar.terminals.get(segment.length)
        if table is None:
            kinds.add("new length")
        elif segment.base in table:
            kinds.add("repeated base")
        else:
            kinds.add("new base at existing length")
    if count > 1:
        kinds.add("count > 1")
    return kinds


def _fresh_base(grammar, length):
    """A plain-letter base of ``length`` that ``grammar`` has not seen."""
    table = grammar.terminals[length]
    for first in _PLAIN:
        for second in _PLAIN:
            base = (first + second * length)[:length]
            if base not in table:
                return base
    raise AssertionError(f"no unseen base of length {length}")


def _replay_updates(corpus, updates):
    """Apply ``updates`` one by one, checking each refreshed snapshot.

    After every update the meter's refreshed snapshot must equal a full
    build column for column and score every probe bit-identically to
    the dict kernel, while every earlier snapshot keeps its bytes and
    its epoch's scores.  Three updates of guaranteed kinds follow the
    given ones: a corpus password with ``count`` 2, an unseen base at
    the longest seen length, and a plain-letter run one longer than
    that.  Returns the set of update kinds applied.
    """
    meter = FuzzyPSM.train(BASE_DICTIONARY, corpus, _REFRESH_CONFIG)
    grammar = meter.grammar
    probes = list(dict.fromkeys(
        [*corpus, *(password for password, _ in updates),
         *TRAINING_PASSWORDS]
    ))
    parses = {password: meter.parse(password) for password in probes}
    history = []
    kinds = set()

    def remember(frozen):
        scores = [frozen.derivation_probability(parses[password].flat)
                  for password in probes]
        history.append((frozen, _tables(frozen), scores))

    def apply(password, count):
        parsed = parses.setdefault(password, meter.parse(password))
        derivation = parsed.to_derivation()
        if password not in probes:
            probes.append(password)
        kinds.update(_update_kinds(grammar, derivation, count))
        meter.update(password, count)
        refreshed = meter.frozen_grammar()
        full = _tables(FrozenGrammar(grammar))
        tables = _tables(refreshed)
        assert refreshed.epoch == grammar.epoch
        assert tables.keys() == full.keys()
        for name, table in full.items():
            assert tables[name] == table, name
        for password in probes:
            assert refreshed.derivation_probability(parses[password].flat) \
                == grammar.derivation_probability(
                    parses[password].to_derivation()
                )
        for frozen, old_tables, scores in history:
            assert _tables(frozen) == old_tables
            assert [frozen.derivation_probability(parses[password].flat)
                    for password in probes[:len(scores)]] == scores
        remember(refreshed)

    remember(meter.frozen_grammar())
    for password, count in updates:
        apply(password, count)
    longest = max(grammar.terminals)
    apply(corpus[0], 2)
    apply(_fresh_base(grammar, longest), 1)
    apply(_PLAIN[0] * (longest + 1), 1)
    return kinds


class TestFrozenRefresh:
    """A snapshot refreshed after an update equals a full build."""

    @given(
        corpus=st.lists(refresh_password(), min_size=1, max_size=10),
        updates=st.lists(
            st.tuples(refresh_password(), st.integers(1, 3)), max_size=6
        ),
    )
    @example(
        corpus=TRAINING_PASSWORDS,
        updates=[("password", 1), ("Dr@gon99", 3), ("zebra42!", 1),
                 ("drowssap", 2), ("PASSWORD!!", 1)],
    )
    @DETERMINISTIC
    def test_refresh_equals_full_build_and_keeps_old_epochs(
        self, corpus, updates
    ):
        assert _replay_updates(corpus, updates) == _UPDATE_KINDS

    def test_refresh_rebuilds_only_the_updated_length(self):
        meter = FuzzyPSM.train(BASE_DICTIONARY, TRAINING_PASSWORDS)
        stale = meter.frozen_grammar()
        # "password" parses to one segment whose length (8) and base the
        # grammar already has: only that length's probabilities change.
        assert [segment.length for segment in
                meter.parse("password").to_derivation().segments] == [8]
        with obs.session() as telemetry:
            meter.update("password")
            fresh = meter.frozen_grammar()
            counters = telemetry.snapshot()["counters"]
        assert counters["meter.frozen.builds"] == 1
        assert counters["meter.frozen.tables.rebuilt"] == 1
        assert counters["meter.frozen.tables.reused"] == \
            len(meter.grammar.terminals) - 1
        for length in stale.terminal_lengths():
            if length != 8:
                assert fresh.terminal_table(length) is \
                    stale.terminal_table(length), length
        index, probabilities, rules = fresh.terminal_table(8)
        stale_index, stale_probabilities, stale_rules = \
            stale.terminal_table(8)
        # Same support: the index and leet rules are shared, the probability
        # column is new.
        assert index is stale_index and rules is stale_rules
        assert probabilities is not stale_probabilities


#: Terminal characters the stored leet rules must get right: the twelve
#: leet characters, upper-case letters (not leet), characters whose
#: UTF-8 bytes are all >= 0x80 (two and four bytes long), NUL,
#: the bytes 0x01-0x05 a rule number could be mistaken for, a newline
#: and a lone surrogate.
_LEET_COLUMN_CHARS = (
    "a@s$o0i1e3t7" "ASTB" "\u00e9\u0130\u00df\U0001f600"
    "\x00\x01\x02\x03\x04\x05\n" "\ud800" "bx"
)


@st.composite
def leet_column_segment(draw) -> DerivedSegment:
    """A segment over :data:`_LEET_COLUMN_CHARS` with drawn toggles."""
    base = draw(st.text(_LEET_COLUMN_CHARS, min_size=1, max_size=6))
    offsets = [offset for offset, _rule in leet_run(base)]
    toggles = draw(st.lists(st.sampled_from(offsets), unique=True)
                   if offsets else st.just([]))
    return DerivedSegment(base, draw(st.booleans()), tuple(sorted(toggles)))


@st.composite
def leet_column_derivation(draw) -> Derivation:
    """One or two :func:`leet_column_segment` segments."""
    return Derivation(tuple(
        draw(st.lists(leet_column_segment(), min_size=1, max_size=2))
    ))


def _untoggled_and_toggled(derivation: Derivation):
    """``derivation`` with no toggles, and with every leet offset toggled."""
    segments = derivation.segments
    return [
        Derivation(tuple(
            replace(segment, toggled_offsets=()) for segment in segments
        )),
        Derivation(tuple(
            replace(segment, toggled_offsets=tuple(
                offset for offset, _rule in leet_run(segment.base)
            ))
            for segment in segments
        )),
    ]


class TestLeetColumn:
    """The per-terminal leet rule bytes against the reference."""

    @given(derivations=st.lists(
        leet_column_derivation(), min_size=1, max_size=4
    ))
    @example(derivations=[
        Derivation((DerivedSegment("p@$$w0rd1", False, (2,)),)),
        Derivation((DerivedSegment("\u00e93\u01307\u00df", True, (1,)),)),
        Derivation((DerivedSegment("\x00\x01\x02\x03\x04\x05\n"),
                    DerivedSegment("a\ud800t", False, (0,)))),
        Derivation((DerivedSegment("\U0001f600so1e", False, ()),
                    DerivedSegment("TeST", False, (1,)))),
    ])
    @DETERMINISTIC
    def test_rules_score_like_the_reference(self, derivations):
        grammar = FuzzyGrammar()
        probes = [
            probe for derivation in derivations
            for probe in (derivation, *_untoggled_and_toggled(derivation))
        ]

        def assert_scores(frozen):
            for probe in probes:
                assert frozen.derivation_probability(probe.flat()) == \
                    grammar.derivation_probability(probe), probe

        # A chain of refreshes, one observed derivation at a time, then
        # a full build of the final tables.
        frozen = FrozenGrammar(grammar)
        for derivation in derivations:
            grammar.observe(derivation.flat())
            frozen = FrozenGrammar(grammar, previous=frozen)
            assert_scores(frozen)
        assert_scores(FrozenGrammar(grammar))

        meter = FuzzyPSM(grammar, PrefixTrie([]))
        reference = {
            surface: probability
            for surface, probability in reference_guesses(meter)
            if probability > 0.0
        }
        guesses = dict(meter.attack_engine().guesses())
        assert set(guesses) == set(reference)
        for surface, probability in guesses.items():
            assert probability == pytest.approx(
                reference[surface], rel=1e-9
            )


class TestParallelScoring:
    """The batch path (``probability_many``) against per-call scoring."""

    @given(batch=st.lists(PASSWORDS, max_size=20))
    @DETERMINISTIC
    def test_serial_batch_uses_frozen_kernel_correctly(self, batch):
        # The serial probability_many path scores through the frozen
        # kernel; the per-call path goes through the dict kernel.
        assert _METER.probability_many(batch) == \
            [_METER.probability(pw) for pw in batch]


class TestRuleMeterBatchOverrides:
    """The exact ``probability_many`` overrides for NIST and KeePSM."""

    NIST = NISTMeter(dictionary=BASE_DICTIONARY)
    KEEPSM = KeePSMMeter()

    @given(batch=st.lists(PASSWORDS, max_size=20))
    @DETERMINISTIC
    def test_nist_batch_equals_per_call(self, batch):
        assert self.NIST.probability_many(batch) == \
            [self.NIST.probability(pw) for pw in batch]

    @given(batch=st.lists(PASSWORDS, max_size=20))
    @DETERMINISTIC
    def test_keepsm_batch_equals_per_call(self, batch):
        assert self.KEEPSM.probability_many(batch) == \
            [self.KEEPSM.probability(pw) for pw in batch]

    def test_duplicates_are_memoised_not_recomputed(self):
        batch = ["password1"] * 5 + ["", "Dr@gon99"] * 3
        for meter in (self.NIST, self.KEEPSM):
            assert meter.probability_many(batch) == \
                [meter.probability(pw) for pw in batch]
