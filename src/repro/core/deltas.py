"""Compact count-table deltas for parallel grammar training.

The first parallel trainer shipped a whole :class:`FuzzyGrammar` back
from every worker chunk — a pickle of every structure tuple, terminal
string and boolean table the chunk touched, with the popular keys
repeated in every chunk's payload.  A :class:`GrammarDelta` replaces
that with the *frozen-grammar layout* turned into a wire format:
per-worker interned indices plus flat ``array`` columns.

Interning is **per worker and persistent across chunks**: the first
time a worker sees a structure or terminal it assigns the next index
and ships the key once, in its ``new_structures`` / ``new_terminals``
lists; every later chunk refers to it by integer index only.  The
parent keeps a mirror vocabulary per worker (:class:`DeltaMerger`), so
the steady-state payload of a chunk is three int arrays and a handful
of boolean counters — no strings, no tuples, no
:class:`~repro.util.freqdist.FrequencyDistribution` objects.

Byte-identity with serial training (the oracle) holds because only the
``structures`` and per-length ``terminals`` tables are insertion-order
sensitive in :meth:`FuzzyGrammar.to_dict` (the boolean tables
serialise under explicit yes/no keys):

* within a chunk, the builder records keys in first-seen order, and
  aggregating a key's repeats into one ``(index, count)`` pair
  preserves that order while counting commutes;
* a worker processes its chunks in increasing submission order (the
  pool task queue is FIFO per process), so by the time the parent
  applies a delta, every index it references is already in that
  worker's mirror vocabulary;
* the parent applies deltas in chunk submission order, so a key first
  seen globally in chunk *k* is inserted exactly where the serial pass
  over the concatenated chunks would have inserted it;
* a terminal's table is keyed by ``len(word)``, so a flat word stream
  reproduces both the length-table insertion order and each table's
  internal order.

``tests/test_training_streaming.py`` asserts the resulting
``to_dict`` documents are byte-identical to the serial pass.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.grammar import FlatParse, FuzzyGrammar, Structure
from repro.util.freqdist import FrequencyDistribution
from repro.util.leet import LEET_RULE_INDEX, LEET_RULE_NAMES

#: Boolean-table slots of :attr:`GrammarDelta.booleans`:
#: (cap_yes, cap_no, rev_yes, rev_no, allcaps_yes, allcaps_no).
_BOOLEAN_SLOTS = 6

#: Leet slots: (yes, no) per rule ``L1..L6`` in paper order.
_LEET_SLOTS = 2 * len(LEET_RULE_NAMES)


@dataclass(frozen=True)
class GrammarDelta:
    """One chunk's count-table increments, in interned-index form.

    Attributes:
        worker_id: identifies which worker's vocabulary the index
            columns refer to (the worker's PID under fork).
        new_structures: structures first seen by this worker, in
            first-seen order; the parent appends them to its mirror
            vocabulary *before* resolving ``structure_refs``.
        structure_refs / structure_counts: parallel columns — the
            chunk's structure observations aggregated per structure,
            in chunk-first-seen order.
        new_terminals: terminal strings first seen by this worker
            (their segment length is ``len(word)``, so no length
            column is needed).
        terminal_refs / terminal_counts: parallel columns over the
            worker's terminal vocabulary, chunk-first-seen order.
        booleans: six counters — capitalization / reverse / all-caps
            yes and no totals for the chunk.
        leet: twelve counters — (yes, no) per leet rule in
            ``LEET_RULE_NAMES`` order.
        entries: number of ``(password, count)`` entries parsed.
        seconds: worker-side wall seconds spent parsing the chunk
            (the parent's telemetry cannot see into pool processes).
    """

    worker_id: int
    new_structures: Tuple[Structure, ...]
    structure_refs: "array[int]"
    structure_counts: "array[int]"
    new_terminals: Tuple[str, ...]
    terminal_refs: "array[int]"
    terminal_counts: "array[int]"
    booleans: Tuple[int, ...]
    leet: Tuple[int, ...]
    entries: int
    seconds: float


class DeltaBuilder:
    """Worker-side accumulator translating flat parses into deltas.

    One builder lives for the whole worker process; its intern tables
    (:attr:`_structure_ids` / :attr:`_terminal_ids`) persist across
    chunks so repeated keys ship as bare integers after their first
    chunk.  Mirrors the counting order of :meth:`FuzzyGrammar.observe`
    exactly — structure first, then per segment: terminal,
    capitalization, reverse, all-caps, per-character leet.
    """

    def __init__(self, worker_id: int = 0) -> None:
        self._worker_id = worker_id
        self._structure_ids: Dict[Structure, int] = {}
        self._terminal_ids: Dict[str, int] = {}
        self.begin_chunk()

    def begin_chunk(self) -> None:
        """Reset the per-chunk accumulators (vocabularies persist)."""
        self._new_structures: List[Structure] = []
        self._structure_refs = array("q")
        self._structure_counts = array("q")
        self._structure_slots: Dict[int, int] = {}
        self._new_terminals: List[str] = []
        self._terminal_refs = array("q")
        self._terminal_counts = array("q")
        self._terminal_slots: Dict[int, int] = {}
        self._booleans = [0] * _BOOLEAN_SLOTS
        self._leet = [0] * _LEET_SLOTS
        self._entries = 0

    def observe(self, parse: FlatParse, count: int = 1) -> None:
        """Accumulate one flat parse (same contract as the grammar's)."""
        self._entries += 1
        structure, segments = parse
        ref = self._structure_ids.get(structure)
        if ref is None:
            ref = len(self._structure_ids)
            self._structure_ids[structure] = ref
            self._new_structures.append(structure)
        slot = self._structure_slots.get(ref)
        if slot is None:
            self._structure_slots[ref] = len(self._structure_refs)
            self._structure_refs.append(ref)
            self._structure_counts.append(count)
        else:
            self._structure_counts[slot] += count
        booleans = self._booleans
        leet = self._leet
        for base, capitalized, toggled, reversed_word, all_caps, _ in \
                segments:
            ref = self._terminal_ids.get(base)
            if ref is None:
                ref = len(self._terminal_ids)
                self._terminal_ids[base] = ref
                self._new_terminals.append(base)
            slot = self._terminal_slots.get(ref)
            if slot is None:
                self._terminal_slots[ref] = len(self._terminal_refs)
                self._terminal_refs.append(ref)
                self._terminal_counts.append(count)
            else:
                self._terminal_counts[slot] += count
            booleans[0 if capitalized else 1] += count
            booleans[2 if reversed_word else 3] += count
            booleans[4 if all_caps else 5] += count
            for offset, ch in enumerate(base):
                rule = LEET_RULE_INDEX.get(ch)
                if rule is not None:
                    leet[
                        2 * rule + (0 if offset in toggled else 1)
                    ] += count

    def finish_chunk(self, seconds: float = 0.0) -> GrammarDelta:
        """Package the accumulated counts and reset for the next chunk."""
        delta = GrammarDelta(
            worker_id=self._worker_id,
            new_structures=tuple(self._new_structures),
            structure_refs=self._structure_refs,
            structure_counts=self._structure_counts,
            new_terminals=tuple(self._new_terminals),
            terminal_refs=self._terminal_refs,
            terminal_counts=self._terminal_counts,
            booleans=tuple(self._booleans),
            leet=tuple(self._leet),
            entries=self._entries,
            seconds=seconds,
        )
        self.begin_chunk()
        return delta


class DeltaMerger:
    """Parent-side fold of :class:`GrammarDelta` streams into a grammar.

    Keeps one mirror vocabulary per ``worker_id``; deltas **must** be
    applied in chunk submission order (the order ``pool.imap`` /
    ``apply_async`` results are consumed), which both resolves every
    index reference and reproduces the serial key-insertion order.
    """

    def __init__(self) -> None:
        self._structures: Dict[int, List[Structure]] = {}
        self._terminals: Dict[int, List[str]] = {}

    def apply(self, grammar: FuzzyGrammar, delta: GrammarDelta) -> None:  # lint-ok: FPM013 -- the epoch bump below is guarded by `bump`: an all-zero delta only issues .add(x, 0) calls, which FrequencyDistribution drops, so the guarded paths leave the grammar byte-identical and frozen snapshots stay valid
        """Fold one delta's counts into ``grammar`` in place."""
        structures = self._structures.setdefault(delta.worker_id, [])
        structures.extend(delta.new_structures)
        terminals = self._terminals.setdefault(delta.worker_id, [])
        terminals.extend(delta.new_terminals)
        bump = any(delta.structure_counts) or any(delta.terminal_counts)
        for ref, count in zip(
            delta.structure_refs, delta.structure_counts
        ):
            grammar.structures.add(structures[ref], count)
        grammar_terminals = grammar.terminals
        for ref, count in zip(delta.terminal_refs, delta.terminal_counts):
            word = terminals[ref]
            table = grammar_terminals.get(len(word))
            if table is None:
                table = grammar_terminals.setdefault(
                    len(word), FrequencyDistribution()
                )
            table.add(word, count)
        booleans = delta.booleans
        grammar.capitalization.add(True, booleans[0])
        grammar.capitalization.add(False, booleans[1])
        grammar.reverse.add(True, booleans[2])
        grammar.reverse.add(False, booleans[3])
        grammar.allcaps.add(True, booleans[4])
        grammar.allcaps.add(False, booleans[5])
        leet = delta.leet
        for index, name in enumerate(LEET_RULE_NAMES):
            table = grammar.leet[name]
            table.add(True, leet[2 * index])
            table.add(False, leet[2 * index + 1])
        if bump:
            # One epoch tick per applied delta, like one observe().
            grammar._epoch += 1
