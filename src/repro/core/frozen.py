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
  (``base -> i``) plus a flat ``array('d')`` of probabilities and, per
  interned terminal, the precomputed ``(offset, leet-rule)`` run so
  scoring never re-derives which rule a character belongs to;
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
runs)`` entry is shared by reference; a length whose total moved
recomputes only its probability column, and only the bases appended
since are interned and get leet runs (the old index is a prefix of the
table's key order).  Structures and the rule pairs are recomputed, as
every update moves their totals.  The refreshed snapshot equals a full
build column for column, and shared entries are never mutated, so an
older snapshot keeps scoring its own epoch.  On the bench grammar one
update's refresh costs a fraction of a full build (``frozen_refresh``:
0.25 ms refresh, 11.7 ms full build, medians over 9 updates).

The snapshot holds only dicts, tuples and flat arrays, so it pickles
cheaply into ``multiprocessing`` workers — the broadcast half of the
parallel scoring engine (DESIGN.md §11).
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
    TypeVar, Union, overload,
)

from repro import obs
from repro.core.grammar import FlatParse, FuzzyGrammar, Structure
from repro.util.freqdist import FrequencyDistribution
from repro.util.leet import LEET_RULE_INDEX, LEET_RULE_NAMES

_T = TypeVar("_T")

#: Backwards-compatible alias; the index now lives in
#: :mod:`repro.util.leet` so the training delta builder shares it.
_LEET_RULE_INDEX: Dict[str, int] = LEET_RULE_INDEX

#: One ``(No, Yes)`` probability pair, indexed by a rule's fired flag.
_Pair = Tuple[float, float]

#: The precomputed leet run of one terminal: ``(offset, rule)`` for
#: every stored character that belongs to a leet pair, in offset order.
_LeetRun = Tuple[Tuple[int, int], ...]

#: One length's compiled terminal entry: the interned ``base -> i``
#: index, the flat probability column (an ``array('d')`` when frozen
#: in-process, a zero-copy ``memoryview('d')`` when attached from a
#: shared segment — every consumer only indexes it), and the
#: per-terminal leet runs.
_TerminalEntry = Tuple[Dict[str, int], Sequence[float], Tuple[_LeetRun, ...]]


class _LazyTerminalTables(Dict[int, _TerminalEntry]):
    """Per-length terminal tables materialised on first access.

    An attached snapshot (:meth:`FrozenGrammar.from_tables`) must not
    decode every interned terminal eagerly: a 1M-corpus model holds
    hundreds of thousands of them, and rebuilding all the intern dicts
    costs ~0.3 s — far beyond the millisecond attach budget of the
    snapshot plane.  Scoring a password only ever touches the handful
    of lengths its segments have, so each length's
    ``(index, probabilities, runs)`` entry is built by a stored thunk
    the first time that length is looked up and cached in the dict
    proper afterwards.

    Only the access surface :class:`FrozenGrammar` uses is lazy-aware:
    ``get`` / ``[]`` / ``in`` / ``iter`` / ``len``.  Plain ``dict``
    views (``values()``/``items()``) would see only the built entries —
    call :meth:`build_all` first (as :meth:`FrozenGrammar.to_tables`
    does) when the full mapping is required.
    """

    __slots__ = ("_pending",)

    def __init__(
        self, pending: Dict[int, Callable[[], _TerminalEntry]]
    ) -> None:
        super().__init__()
        self._pending = pending

    def _materialise(self, length: int) -> _TerminalEntry:
        entry = self._pending.pop(length)()
        dict.__setitem__(self, length, entry)
        return entry

    def build_all(self) -> None:
        """Force every pending length (for whole-table consumers)."""
        for length in list(self._pending):
            self._materialise(length)

    @overload
    def get(self, key: int) -> Optional[_TerminalEntry]: ...

    @overload
    def get(self, key: int, default: _T) -> Union[_TerminalEntry, _T]: ...

    def get(self, key: int, default: Any = None) -> Any:  # type: ignore[override]
        entry: Optional[_TerminalEntry] = dict.get(self, key)
        if entry is not None:
            return entry
        if key in self._pending:
            return self._materialise(key)
        return default

    def __getitem__(self, key: int) -> _TerminalEntry:
        entry: Optional[_TerminalEntry] = dict.get(self, key)
        if entry is not None:
            return entry
        if key in self._pending:
            return self._materialise(key)
        raise KeyError(key)

    def __contains__(self, key: object) -> bool:
        return dict.__contains__(self, key) or key in self._pending

    def __iter__(self) -> Iterator[int]:
        # Snapshot both key sets: consumers may materialise entries
        # (moving keys from pending to built) while iterating.
        return iter([*dict.__iter__(self), *self._pending])

    def __len__(self) -> int:
        return dict.__len__(self) + len(self._pending)


def _lazy_terminal_builder(
    length: int,
    count: int,
    blob: str,
    blob_start: int,
    probabilities: Sequence[float],
    run_counts: Sequence[int],
    run_offsets: Sequence[int],
    run_rules: Sequence[int],
) -> Callable[[], _TerminalEntry]:
    """Thunk rebuilding one length's terminal entry from flat columns.

    ``blob`` is the full decoded terminal blob; this length's bases
    occupy ``count`` fixed-width (``length`` code points) slots starting
    at ``blob_start``.  The probability column is adopted by reference
    (zero-copy when it is a segment ``memoryview``), so attached scores
    read the exact bits the freeze wrote.
    """

    def build() -> _TerminalEntry:
        index = {
            blob[blob_start + i * length:blob_start + (i + 1) * length]: i
            for i in range(count)
        }
        pairs = zip(run_offsets, run_rules)
        runs = tuple(
            tuple(islice(pairs, entries)) for entries in run_counts
        )
        return (index, probabilities, runs)

    return build


def _leet_run(base: str) -> _LeetRun:
    """The ``(offset, rule)`` pairs of ``base``'s leet characters."""
    return tuple(
        (offset, _LEET_RULE_INDEX[ch])
        for offset, ch in enumerate(base)
        if ch in _LEET_RULE_INDEX
    )


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
    tables (see the module docstring).  Without it, or with an attached
    snapshot (:meth:`from_tables`, which carries no count totals),
    every table is built from the counts.

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
                runs: Tuple[_LeetRun, ...] = ()
            else:
                index, _, runs = entries[length]
                if before == total:
                    self._terminals[length] = entries[length]
                    reused += 1
                    continue
            start = len(index)
            if len(table) > start:
                fresh = list(islice(table, start, None))
                index = dict(index)
                index.update(zip(fresh, range(start, len(table))))
                runs += tuple(map(_leet_run, fresh))
            probabilities = array(
                "d", [count / total for _base, count in table.items()]
            )
            self._terminals[length] = (index, probabilities, runs)
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
                for offset, rule in entry[2][index]:
                    seg_probability *= leet[rule][offset in toggled]
            else:
                for _offset, rule in entry[2][index]:
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
        """One length's compiled ``(intern index, probabilities, leet runs)``.

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

    # --- flat-column export / attach -----------------------------------

    def to_tables(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """``(meta, sections)`` flat columns for the snapshot plane.

        Everything the snapshot holds becomes one of the section dtypes
        the directory codec (:mod:`repro.util.sections`) knows:

        * structures as a ragged ``int64`` encoding — per-structure
          segment counts (``structure_lens``), the flattened segment
          lengths (``structure_flat``) and the probability column;
        * terminals grouped by length in sorted-length order — per
          length its value and terminal count, then one fixed-width
          UTF-8 blob of every interned base, the flat probability
          column, and the leet runs as ragged ``(offset, rule)``
          columns with per-terminal entry counts and per-length totals
          (``term_run_totals``) so the attach side slices each length's
          run span without summing;
        * the five rule tables flattened into one 18-float
          ``rule_probs`` column (capitalization, reverse, all-caps,
          then the six leet pairs, each as ``No, Yes``).

        ``meta`` carries the snapshot :attr:`epoch`.
        """
        terminals = self._terminals
        if isinstance(terminals, _LazyTerminalTables):
            terminals.build_all()
        structure_lens = array("q")
        structure_flat = array("q")
        structure_probs = array("d")
        for structure, probability in self._structures.items():
            structure_lens.append(len(structure))
            structure_flat.extend(structure)
            structure_probs.append(probability)
        term_lengths = array("q")
        term_counts = array("q")
        term_probs = array("d")
        term_run_counts = array("q")
        term_run_offsets = array("q")
        term_run_rules = array("q")
        term_run_totals = array("q")
        blob_pieces: List[str] = []
        for length in sorted(terminals):
            index, probabilities, runs = terminals[length]
            term_lengths.append(length)
            term_counts.append(len(index))
            # Interning appends bases in index order, so iterating the
            # index dict yields terminal ``i`` at blob slot ``i``.
            blob_pieces.extend(index)
            term_probs.extend(probabilities)
            total = 0
            for run in runs:
                term_run_counts.append(len(run))
                total += len(run)
                for offset, rule in run:
                    term_run_offsets.append(offset)
                    term_run_rules.append(rule)
            term_run_totals.append(total)
        rule_probs = array("d", self._capitalization)
        rule_probs.extend(self._reverse)
        rule_probs.extend(self._allcaps)
        for pair in self._leet:
            rule_probs.extend(pair)
        sections: Dict[str, Any] = {
            "structure_lens": structure_lens,
            "structure_flat": structure_flat,
            "structure_probs": structure_probs,
            "term_lengths": term_lengths,
            "term_counts": term_counts,
            "term_blob": "".join(blob_pieces),
            "term_probs": term_probs,
            "term_run_counts": term_run_counts,
            "term_run_offsets": term_run_offsets,
            "term_run_rules": term_run_rules,
            "term_run_totals": term_run_totals,
            "rule_probs": rule_probs,
        }
        meta = {"epoch": self.epoch}
        return meta, sections

    @classmethod
    def from_tables(
        cls, meta: Dict[str, Any], sections: Dict[str, Any]
    ) -> "FrozenGrammar":
        """Rebuild a snapshot from :meth:`to_tables` columns.

        The attach half of the snapshot plane, built for a millisecond
        budget: structures and the 18 rule probabilities are decoded
        eagerly (cheap — thousands of small tuples at most), while the
        terminal tables — the bulk of a large model — become a
        :class:`_LazyTerminalTables` whose per-length entries
        materialise on first use.  Probability values are read straight
        out of the (typically shared-memory) ``float64`` columns, so
        attached scores are bit-identical to the freeze that wrote
        them.
        """
        self = cls.__new__(cls)
        self.epoch = int(meta["epoch"])
        # No count totals travel with the columns, so an attached
        # snapshot never seeds a refresh: every length rebuilds.
        self._totals = {}
        structures: Dict[Structure, float] = {}
        lens = sections["structure_lens"]
        flat = sections["structure_flat"]
        probs = sections["structure_probs"]
        position = 0
        for i in range(len(lens)):
            width = lens[i]
            structures[tuple(flat[position:position + width])] = probs[i]
            position += width
        self._structures = structures
        blob = sections["term_blob"]
        term_probs = sections["term_probs"]
        run_counts = sections["term_run_counts"]
        run_offsets = sections["term_run_offsets"]
        run_rules = sections["term_run_rules"]
        lengths = sections["term_lengths"]
        counts = sections["term_counts"]
        totals = sections["term_run_totals"]
        pending: Dict[int, Callable[[], _TerminalEntry]] = {}
        blob_position = 0
        prob_position = 0
        run_position = 0
        pair_position = 0
        for i in range(len(lengths)):
            length = int(lengths[i])
            count = int(counts[i])
            total = int(totals[i])
            pending[length] = _lazy_terminal_builder(
                length, count, blob, blob_position,
                term_probs[prob_position:prob_position + count],
                run_counts[run_position:run_position + count],
                run_offsets[pair_position:pair_position + total],
                run_rules[pair_position:pair_position + total],
            )
            blob_position += length * count
            prob_position += count
            run_position += count
            pair_position += total
        self._terminals = _LazyTerminalTables(pending)
        rules = sections["rule_probs"]
        self._capitalization = (rules[0], rules[1])
        self._reverse = (rules[2], rules[3])
        self._allcaps = (rules[4], rules[5])
        self._leet = tuple(
            (rules[6 + 2 * i], rules[7 + 2 * i])
            for i in range(len(LEET_RULE_NAMES))
        )
        return self

    # --- introspection -------------------------------------------------

    @property
    def structure_count(self) -> int:
        """Number of distinct base structures in the snapshot."""
        return len(self._structures)

    @property
    def terminal_count(self) -> int:
        """Number of interned terminals across every length table."""
        # Keyed access (not ``.values()``) so lazy attached tables
        # materialise the lengths they are asked for.
        return sum(
            len(self._terminals[length][0]) for length in self._terminals
        )

    def is_current(self, grammar: FuzzyGrammar) -> bool:
        """True while the snapshot still reflects ``grammar`` exactly."""
        return self.epoch == grammar.epoch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrozenGrammar(epoch={self.epoch}, "
            f"structures={self.structure_count}, "
            f"terminals={self.terminal_count})"
        )


def freeze(grammar: FuzzyGrammar,
           stale: Optional[FrozenGrammar] = None) -> FrozenGrammar:
    """Snapshot ``grammar``, reusing ``stale`` when still current.

    The lazy-invalidation helper: callers hold one snapshot of
    ``grammar`` and call ``freeze(grammar, snapshot)`` before scoring;
    a snapshot taken at the grammar's current epoch is returned as-is,
    anything else is refreshed from it (``FrozenGrammar(grammar,
    stale)``).
    """
    if stale is not None and stale.is_current(grammar):
        return stale
    return FrozenGrammar(grammar, stale)
