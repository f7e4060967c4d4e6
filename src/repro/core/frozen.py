"""The frozen scoring kernel: a :class:`FuzzyGrammar` compiled flat.

:meth:`FuzzyGrammar.derivation_probability` walks dict-of-
:class:`~repro.util.freqdist.FrequencyDistribution` tables: every
factor of the product (Fig. 11 of the paper) pays a method call, a
dict probe and a division, and every leet factor additionally re-derives
its rule name from the character (two dict probes plus an f-string).
That layout is right for *training* — tables mutate on every observed
password — but evaluation sweeps score millions of passwords against a
grammar that does not change between updates.

:class:`FrozenGrammar` is the read-only snapshot for that regime.  At
freeze time every table is compiled once:

* **structures** — one ``structure -> probability`` map (the division
  is paid per distinct structure, not per score);
* **terminals** — per segment length, an interned index
  (``base -> i``), a flat ``array('d')`` of probabilities and, per
  interned terminal, one ``bytes`` of the rule numbers (0-5) of its
  leet characters in offset order, so an untoggled segment multiplies
  its leet factors straight off those bytes.  A table's new bases get
  theirs from one ``bytes.translate`` over their joined UTF-8 encodings
  (:func:`~repro.util.leet.leet_rule_bytes`); a toggled segment, which
  needs offsets, derives its ``(offset, rule)`` run from the base;
* **capitalization / reverse / allcaps** — two-entry ``(No, Yes)``
  tuples indexed directly by the derivation's booleans, with the
  legacy-grammar sentinel semantics of
  :meth:`FuzzyGrammar.reverse_probability` baked in;
* **leet** — six ``(No, Yes)`` pairs indexed by rule number.

Scoring a parsed derivation is then pure indexing — but the
*multiplication order* of :meth:`FuzzyGrammar.derivation_probability`
is preserved factor for factor, so frozen scores are bit-identical to
the dict path (asserted by ``tests/test_scoring_parallel.py``).  This
makes :meth:`FrozenGrammar.derivation_probability` a blessed FPM002
product kernel: like the dict path it short-circuits on exact zero, so
the underflow window stays bounded by one password's factor count.

A snapshot records the grammar's :attr:`~FuzzyGrammar.epoch` at build
time.  The update phase (``FuzzyPSM.update`` → ``observe``) bumps the
epoch, so holders compare ``frozen.epoch != grammar.epoch`` and lazily
*refresh*: ``FrozenGrammar(grammar, previous=stale)`` builds the next
snapshot from the stale one instead of recompiling every table.  Count
tables only grow, through :meth:`FrequencyDistribution.add`, which
appends unseen keys and strictly raises the total.  So a length table
whose total has not moved is unchanged and its ``(index, probabilities,
rules)`` entry is shared by reference; a length whose total moved
recomputes only its probability column, and only the bases appended
since are interned and get leet rule bytes (the old index is a prefix
of the table's key order).  Structures and the rule pairs are
recomputed, as every update moves their totals.  The refreshed
snapshot equals a full build column for column, and shared entries
are never mutated, so an older snapshot keeps scoring its own epoch.  On the bench grammar one
update's refresh costs a fraction of a full build (``frozen_refresh``:
0.18 ms refresh, 2.25 ms full build, medians over 9 updates).
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.grammar import FlatParse, FuzzyGrammar, Structure
from repro.util.freqdist import FrequencyDistribution
from repro.util.leet import LEET_RULE_INDEX, LEET_RULE_NAMES, leet_rule_bytes

#: One ``(No, Yes)`` probability pair, indexed by a rule's fired flag.
_Pair = Tuple[float, float]

#: One length's compiled terminal entry: the interned ``base -> i``
#: index, the flat ``array('d')`` probability column, and per terminal
#: the rule numbers of its leet characters as one ``bytes``
#: (:func:`~repro.util.leet.leet_rule_bytes`).
_TerminalEntry = Tuple[Dict[str, int], Sequence[float], Tuple[bytes, ...]]


def _pair(dist: "FrequencyDistribution[bool]") -> _Pair:
    """``(P(No), P(Yes))`` with plain maximum-likelihood semantics."""
    return (dist.probability(False), dist.probability(True))


def _sentinel_pair(dist: "FrequencyDistribution[bool]") -> _Pair:
    """``(P(No), P(Yes))`` with the never-trained no-op sentinel.

    Matches :meth:`FuzzyGrammar.reverse_probability` /
    ``allcaps_probability``: an empty table is a certainty factor.
    """
    if dist.total == 0:
        return (1.0, 0.0)
    return _pair(dist)


class FrozenGrammar:
    """Immutable flat-table snapshot of a :class:`FuzzyGrammar`.

    ``previous``, when given, must be an earlier snapshot of the same
    grammar object: the new snapshot shares or extends its length
    tables (see the module docstring).  Without it every table is built
    from the counts.

    >>> from repro.core.grammar import Derivation, DerivedSegment
    >>> grammar = FuzzyGrammar()
    >>> derivation = Derivation((DerivedSegment("password"),))
    >>> grammar.observe(derivation.flat())
    >>> frozen = FrozenGrammar(grammar)
    >>> frozen.derivation_probability(derivation.flat()) == \
            grammar.derivation_probability(derivation)
    True
    >>> frozen.epoch == grammar.epoch
    True
    """

    __slots__ = (
        "epoch", "_structures", "_terminals", "_totals",
        "_capitalization", "_reverse", "_allcaps", "_leet",
    )

    def __init__(
        self,
        grammar: FuzzyGrammar,
        previous: Optional["FrozenGrammar"] = None,
    ) -> None:
        self.epoch: int = grammar.epoch
        structure_total = grammar.structures.total
        self._structures: Dict[Structure, float] = (
            {
                structure: count / structure_total
                for structure, count in grammar.structures.items()
            }
            if structure_total
            else {}
        )
        # Tables only grow through FrequencyDistribution.add, which
        # appends new keys and strictly raises ``total``: an unmoved
        # total means an unchanged table, and an old index is a prefix
        # of the table's key order.  Shared entries are never mutated.
        known = previous._totals if previous is not None else {}
        entries = previous._terminals if previous is not None else {}
        self._totals: Dict[int, int] = {}
        self._terminals: Dict[int, _TerminalEntry] = {}
        reused = 0
        for length, table in grammar.terminals.items():
            total = self._totals[length] = table.total
            before = known.get(length)
            if before is None:
                index: Dict[str, int] = {}
                rules: Tuple[bytes, ...] = ()
            else:
                index, _, rules = entries[length]
                if before == total:
                    self._terminals[length] = entries[length]
                    reused += 1
                    continue
            start = len(index)
            if len(table) > start:
                fresh = list(islice(table, start, None))
                index = dict(index)
                index.update(zip(fresh, range(start, len(table))))
                rules += tuple(leet_rule_bytes(fresh))
            probabilities = array(
                "d", [count / total for _base, count in table.items()]
            )
            self._terminals[length] = (index, probabilities, rules)
        telemetry = obs.get()
        if telemetry.enabled:
            telemetry.incr_many([
                ("meter.frozen.tables.reused", reused),
                ("meter.frozen.tables.rebuilt",
                 len(self._terminals) - reused),
            ])
        self._capitalization: _Pair = _pair(grammar.capitalization)
        self._reverse: _Pair = _sentinel_pair(grammar.reverse)
        self._allcaps: _Pair = _sentinel_pair(grammar.allcaps)
        self._leet: Tuple[_Pair, ...] = tuple(
            _pair(grammar.leet[name]) for name in LEET_RULE_NAMES
        )

    # --- scoring -------------------------------------------------------

    def structure_probability(self, structure: Structure) -> float:
        """Same value as :meth:`FuzzyGrammar.structure_probability`."""
        return self._structures.get(structure, 0.0)

    def terminal_probability(self, base: str) -> float:
        """Same value as :meth:`FuzzyGrammar.terminal_probability`."""
        entry = self._terminals.get(len(base))
        if entry is None:
            return 0.0
        index = entry[0].get(base)
        if index is None:
            return 0.0
        return entry[1][index]

    def derivation_probability(self, parse: FlatParse) -> float:
        """Bit-identical fast path of the Fig.-11 product.

        Takes a flat parse (:data:`~repro.core.grammar.FlatParse`), as
        the parser produces and caches it.  Every multiplication of
        :meth:`FuzzyGrammar.derivation_probability` (via
        ``segment_probability``) happens here with the same factor
        values, in the same order, into the same accumulators — only
        the table lookups are compiled away.
        """
        structure, segments = parse
        probability = self._structures.get(structure, 0.0)
        terminals = self._terminals
        capitalization = self._capitalization
        reverse = self._reverse
        allcaps = self._allcaps
        leet = self._leet
        rule_of = LEET_RULE_INDEX.get
        for base, capitalized, toggled, reversed_word, all_caps, _ in \
                segments:
            if probability == 0.0:
                return 0.0
            entry = terminals.get(len(base))
            index = entry[0].get(base) if entry is not None else None
            if entry is None or index is None:
                # The dict path's zero terminal factor, multiplied in.
                probability *= 0.0
                continue
            seg_probability = entry[1][index]
            seg_probability *= capitalization[capitalized]
            seg_probability *= reverse[reversed_word]
            seg_probability *= allcaps[all_caps]
            if toggled:
                # The stored rules carry no offsets; the few toggled
                # segments find theirs in the base.
                for offset, ch in enumerate(base):
                    rule = rule_of(ch)
                    if rule is not None:
                        seg_probability *= leet[rule][offset in toggled]
            else:
                for rule in entry[2][index]:
                    seg_probability *= leet[rule][0]
            probability *= seg_probability
        return probability

    # --- compiled-table access (attack engine) -------------------------

    def structure_table(self) -> Dict[Structure, float]:
        """The compiled ``structure -> probability`` map, by reference.

        Read-only by contract: the attack engine
        (:mod:`repro.attacks.engine`) iterates it to seed guess
        enumeration without re-deriving probabilities from counts.
        """
        return self._structures

    def terminal_lengths(self) -> List[int]:
        """Sorted segment lengths that have a compiled terminal table."""
        return sorted(self._terminals)

    def terminal_table(self, length: int) -> Optional[_TerminalEntry]:
        """One length's compiled ``(intern index, probabilities, leet rules)``.

        The flat layout documented in the module docstring, exposed so
        the attack engine enumerates interned terminals directly
        instead of walking count tables.  ``None`` when no terminal of
        that length was observed.
        """
        return self._terminals.get(length)

    @property
    def capitalization_pair(self) -> _Pair:
        """``(P(No), P(Yes))`` of the capitalization rule."""
        return self._capitalization

    @property
    def reverse_pair(self) -> _Pair:
        """``(P(No), P(Yes))`` of the reverse rule (sentinel baked in)."""
        return self._reverse

    @property
    def allcaps_pair(self) -> _Pair:
        """``(P(No), P(Yes))`` of the all-caps rule (sentinel baked in)."""
        return self._allcaps

    @property
    def leet_pairs(self) -> Tuple[_Pair, ...]:
        """Six ``(P(No), P(Yes))`` pairs, indexed by leet rule number."""
        return self._leet

    # --- introspection -------------------------------------------------

    @property
    def structure_count(self) -> int:
        """Number of distinct base structures in the snapshot."""
        return len(self._structures)

    @property
    def terminal_count(self) -> int:
        """Number of interned terminals across every length table."""
        return sum(len(index) for index, _, _ in self._terminals.values())

    def is_current(self, grammar: FuzzyGrammar) -> bool:
        """True while the snapshot still reflects ``grammar`` exactly."""
        return self.epoch == grammar.epoch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrozenGrammar(epoch={self.epoch}, "
            f"structures={self.structure_count}, "
            f"terminals={self.terminal_count})"
        )
