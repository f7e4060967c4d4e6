"""The fuzzy probabilistic context-free grammar (paper Sec. IV-C).

A :class:`FuzzyGrammar` is the learned artefact of the training phase.
It holds four probability tables, mirroring Tables IV-VI of the paper:

* **base structures** — ``S -> B_{n1} B_{n2} ...`` (tuple of segment
  lengths), e.g. ``S -> B8 B1`` for ``p@ssw0rd1``;
* **terminals** — one distribution per segment length ``n`` over the
  strings that filled a ``B_n`` slot in training (basic passwords and
  fallback runs share one table, exactly as in Table IV where ``B1 -> 1``
  and ``B1 -> a`` coexist);
* **capitalization** — a Yes/No distribution for "the first character
  of a base segment was capitalized" (Table V), one factor per segment;
* **leet** — a Yes/No distribution per leet rule ``L1..L6`` (Table VI),
  one factor per stored character that belongs to a leet pair.

The probability of a password is the product of the probabilities of
every rule in its derivation (Fig. 11 of the paper).
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
    TypeVar,
)

from repro.util.freqdist import FrequencyDistribution
from repro.util.leet import (
    LEET_BY_LETTER,
    LEET_BY_SUBSTITUTE,
    LEET_RULE_INDEX,
    LEET_RULE_NAMES,
)
from repro.util.sections import check_parallel, check_partition

#: A base structure is the tuple of segment lengths, e.g. ``(8, 1)``.
Structure = Tuple[int, ...]

#: One segment of a flat parse: ``(base, capitalized, toggled_offsets,
#: reversed_word, all_caps, dictionary)`` — the fields of
#: :class:`DerivedSegment` plus whether the base dictionary matched it.
FlatSegment = Tuple[str, bool, Tuple[int, ...], bool, bool, bool]

#: A flat parse: the structure plus one :data:`FlatSegment` per
#: segment.  It is what the parser produces, and what
#: :meth:`FuzzyGrammar.observe`, the batch counter
#: (:func:`count_parses`) and the frozen scoring kernel take, so
#: scoring and training build no object per segment.
FlatParse = Tuple[Structure, Tuple[FlatSegment, ...]]

_T = TypeVar("_T", bound=Hashable)


class ParseCounts(NamedTuple):
    """What a batch of counted flat parses adds to the count tables.

    Built by :func:`count_parses` from one training window's parses
    and added by :meth:`FuzzyGrammar.fold`: plain dicts, ints and
    tuples.
    """

    #: structure -> summed count, in first-seen order.
    structures: Dict[Structure, int]
    #: terminal -> summed count, in first-seen order; their sum is the
    #: weighted segment count, each boolean table's Yes + No.
    terminals: Dict[str, int]
    #: Yes counts of the capitalization, reverse and all-caps tables.
    capitalized: int
    reversed_words: int
    all_caps: int
    #: Per leet rule in :data:`LEET_RULE_NAMES` order: Yes counts, and
    #: weighted leet characters (Yes + No).
    leet_yes: Tuple[int, ...]
    leet_chars: Tuple[int, ...]


def count_parses(pairs: Iterable[Tuple[FlatParse, int]]) -> ParseCounts:
    """Count a batch of ``(flat parse, count)`` pairs in one pass.

    :meth:`FuzzyGrammar.fold` of the result leaves the tables exactly as
    :meth:`FuzzyGrammar.observe` of every pair in order would: keys in
    first-seen order, a pair's count added once per structure, segment
    and leet character.  Leet Yes is counted character by character on
    segments with toggles only; leet characters once per distinct
    terminal.  A count below 1 raises before any table changes.
    """
    structures: Dict[Structure, int] = {}
    terminals: Dict[str, int] = {}
    structure_count = structures.get
    terminal_count = terminals.get
    rule_of = LEET_RULE_INDEX.get
    capitalized_yes = reversed_yes = all_caps_yes = 0
    leet_yes = [0] * len(LEET_RULE_NAMES)
    for (structure, segments), count in pairs:
        if count < 1:
            raise ValueError(f"parse count must be positive, got {count!r}")
        structures[structure] = structure_count(structure, 0) + count
        for base, capitalized, toggled, reversed_word, all_caps, _ in \
                segments:
            terminals[base] = terminal_count(base, 0) + count
            if capitalized:
                capitalized_yes += count
            if reversed_word:
                reversed_yes += count
            if all_caps:
                all_caps_yes += count
            if toggled:
                for offset, ch in enumerate(base):
                    rule = rule_of(ch)
                    if rule is not None and offset in toggled:
                        leet_yes[rule] += count
    leet_chars = [0] * len(LEET_RULE_NAMES)
    for base, count in terminals.items():
        for ch in base:
            rule = rule_of(ch)
            if rule is not None:
                leet_chars[rule] += count
    return ParseCounts(structures, terminals, capitalized_yes,
                       reversed_yes, all_caps_yes, tuple(leet_yes),
                       tuple(leet_chars))


def structure_label(structure: Structure) -> str:
    """Human-readable form of a structure.

    >>> structure_label((8, 1))
    'B8 B1'
    """
    return " ".join(f"B{n}" for n in structure)


def leet_rule_for_char(ch: str) -> Optional[str]:
    """The leet rule (``L1``..``L6``) that ``ch`` participates in, if any.

    Both sides of a pair map to the same rule:

    >>> leet_rule_for_char("o"), leet_rule_for_char("0")
    ('L3', 'L3')
    >>> leet_rule_for_char("x") is None
    True
    """
    if ch in LEET_BY_LETTER:
        letter = ch
    elif ch in LEET_BY_SUBSTITUTE:
        letter = LEET_BY_SUBSTITUTE[ch]
    else:
        return None
    index = "asoiet".index(letter)
    return f"L{index + 1}"


@dataclass(frozen=True)
class DerivedSegment:
    """One ``B_n`` slot of a derivation.

    Attributes:
        base: the stored terminal string filling the slot.
        capitalized: whether the first-letter capitalization rule fired.
        toggled_offsets: offsets into ``base`` where a leet toggle fired.
        reversed_word: whether the reverse rule fired — the paper's
            named future-work transformation ("substring movement and
            reverse are left as future research", Sec. IV-C).  The
            capitalization/leet transformations apply to the base
            first; the resulting string is then reversed.
        all_caps: whether the whole-word capitalization rule fired —
            the paper's limitation #2 extension ("for capitalization,
            it only considers the capitalization of the first
            letter").  Mutually exclusive with ``capitalized``.
    """

    base: str
    capitalized: bool = False
    toggled_offsets: Tuple[int, ...] = ()
    reversed_word: bool = False
    all_caps: bool = False

    @property
    def length(self) -> int:
        return len(self.base)

    def surface(self) -> str:
        """The observable string this segment derives.

        >>> DerivedSegment("p@ssword", True, (5,)).surface()
        'P@ssw0rd'
        >>> DerivedSegment("password", reversed_word=True).surface()
        'drowssap'
        >>> DerivedSegment("pass12", all_caps=True).surface()
        'PASS12'
        """
        return segment_surface(
            self.base, self.capitalized, self.toggled_offsets,
            self.reversed_word, self.all_caps,
        )


def segment_surface(base: str, capitalized: bool,
                    toggled_offsets: Tuple[int, ...],
                    reversed_word: bool, all_caps: bool) -> str:
    """The observable string one segment derives (see
    :meth:`DerivedSegment.surface`), from its fields."""
    if capitalized and all_caps:
        raise ValueError(
            "capitalized and all_caps are mutually exclusive"
        )
    chars: List[str] = []
    for offset, ch in enumerate(base):
        if offset in toggled_offsets:
            partner = LEET_BY_LETTER.get(ch) or LEET_BY_SUBSTITUTE.get(ch)
            if partner is None:
                raise ValueError(
                    f"offset {offset} of {base!r} is not leet-able"
                )
            ch = partner
        if all_caps or (offset == 0 and capitalized):
            ch = ch.upper()
        chars.append(ch)
    text = "".join(chars)
    return text[::-1] if reversed_word else text


@dataclass(frozen=True)
class Derivation:
    """A full derivation ``S -> B_{n1}...B_{nk} -> password``."""

    segments: Tuple[DerivedSegment, ...]

    @property
    def structure(self) -> Structure:
        return tuple(seg.length for seg in self.segments)

    def surface(self) -> str:
        return "".join(seg.surface() for seg in self.segments)

    def flat(self) -> FlatParse:
        """This derivation as a :data:`FlatParse`.

        A derivation does not record which segments the base
        dictionary matched, so every ``dictionary`` flag reads False;
        nothing that scores or counts a flat parse reads that flag.
        """
        return self.structure, tuple(
            (seg.base, seg.capitalized, seg.toggled_offsets,
             seg.reversed_word, seg.all_caps, False)
            for seg in self.segments
        )


class FuzzyGrammar:
    """Probability tables of the fuzzy PCFG, with incremental updates.

    The grammar is *count-based*: every table stores raw observation
    counts, so the update phase (paper Sec. IV-C) is a constant-time
    increment and probabilities always reflect all data seen so far.
    """

    def __init__(self) -> None:
        #: Mutation counter: bumped by :meth:`observe` and by
        #: :meth:`fold` (the mutation verbs of the training/update
        #: lifecycle), so derived snapshots
        #: — the :class:`~repro.core.frozen.FrozenGrammar` scoring
        #: kernel — can detect staleness lazily instead of being
        #: invalidated eagerly on every accepted password.
        self._epoch = 0
        self.structures: FrequencyDistribution[Structure] = FrequencyDistribution()
        self.terminals: Dict[int, FrequencyDistribution[str]] = {}
        self.capitalization: FrequencyDistribution[bool] = FrequencyDistribution()
        self.leet: Dict[str, FrequencyDistribution[bool]] = {
            name: FrequencyDistribution() for name in LEET_RULE_NAMES
        }
        #: Reverse-rule Yes/No counts.  Populated only when a parser
        #: with ``allow_reverse`` trained the grammar; grammars that
        #: never saw the rule treat it as a certainty (factor 1.0) so
        #: the extension is zero-cost when off.
        self.reverse: FrequencyDistribution[bool] = FrequencyDistribution()
        #: All-caps rule Yes/No counts (limitation-#2 extension);
        #: same zero-cost-when-off semantics as ``reverse``.
        self.allcaps: FrequencyDistribution[bool] = FrequencyDistribution()

    # --- observation (training / update) ------------------------------

    @property
    def epoch(self) -> int:
        """Monotone mutation counter (see ``__init__``); snapshots
        taken at epoch ``e`` are exact until the epoch moves past ``e``."""
        return self._epoch

    def observe(self, parse: FlatParse, count: int = 1) -> None:
        """Record one training password's flat parse into the tables.

        ``parse`` comes from :meth:`FuzzyParser.parse_flat` (or
        :meth:`Derivation.flat`): structure first, then per segment its
        terminal, capitalization, reverse, all-caps and per-character
        leet counts.
        """
        self._epoch += 1
        structure, segments = parse
        self.structures.add(structure, count)
        terminals = self.terminals
        leet = self.leet
        for base, capitalized, toggled, reversed_word, all_caps, _ in \
                segments:
            table = terminals.get(len(base))
            if table is None:
                table = terminals[len(base)] = FrequencyDistribution()
            table.add(base, count)
            self.capitalization.add(capitalized, count)
            self.reverse.add(reversed_word, count)
            self.allcaps.add(all_caps, count)
            for offset, ch in enumerate(base):
                rule = LEET_RULE_INDEX.get(ch)
                if rule is not None:
                    leet[LEET_RULE_NAMES[rule]].add(offset in toggled, count)

    def fold(self, counts: ParseCounts) -> None:
        """Add one batch's :func:`count_parses` result to the tables.

        Structures and terminals are added in first-seen order, each
        boolean table as Yes and (total - Yes), with one epoch tick for
        the batch.  Folding the batches of a pass in order gives the tables
        :meth:`observe` of every pair gives.
        """
        self._epoch += 1
        (structures, terminals, capitalized, reversed_words, all_caps,
         leet_yes, leet_chars) = counts
        for structure, count in structures.items():
            self.structures.add(structure, count)
        tables = self.terminals
        for base, count in terminals.items():
            table = tables.get(len(base))
            if table is None:
                table = tables[len(base)] = FrequencyDistribution()
            table.add(base, count)
        segments = sum(terminals.values())
        for dist, yes in ((self.capitalization, capitalized),
                          (self.reverse, reversed_words),
                          (self.allcaps, all_caps)):
            dist.add(True, yes)
            dist.add(False, segments - yes)
        for name, yes, chars in zip(LEET_RULE_NAMES, leet_yes, leet_chars):
            dist = self.leet[name]
            dist.add(True, yes)
            dist.add(False, chars - yes)

    def __eq__(self, other: object) -> bool:
        """True when every count table is identical."""
        if not isinstance(other, FuzzyGrammar):
            return NotImplemented
        return (
            self.structures == other.structures
            and self.terminals == other.terminals
            and self.capitalization == other.capitalization
            and self.reverse == other.reverse
            and self.allcaps == other.allcaps
            and self.leet == other.leet
        )

    __hash__ = None  # type: ignore[assignment]  # mutable container

    # --- probabilities -------------------------------------------------

    def structure_probability(self, structure: Structure) -> float:
        return self.structures.probability(structure)

    def terminal_probability(self, base: str) -> float:
        table = self.terminals.get(len(base))
        if table is None:
            return 0.0
        return table.probability(base)

    def capitalization_probability(self, capitalized: bool) -> float:
        return self.capitalization.probability(capitalized)

    def leet_probability(self, rule: str, fired: bool) -> float:
        if rule not in self.leet:
            raise KeyError(f"unknown leet rule {rule!r}")
        return self.leet[rule].probability(fired)

    def reverse_probability(self, reversed_word: bool) -> float:
        """Reverse-rule factor; a never-trained table is a no-op
        (1.0 for No, 0.0 for Yes) so legacy grammars are unchanged."""
        if self.reverse.total == 0:
            return 0.0 if reversed_word else 1.0
        return self.reverse.probability(reversed_word)

    def allcaps_probability(self, all_caps: bool) -> float:
        """All-caps factor; same no-op semantics for legacy grammars."""
        if self.allcaps.total == 0:
            return 0.0 if all_caps else 1.0
        return self.allcaps.probability(all_caps)

    def segment_probability(self, segment: DerivedSegment) -> float:
        """Terminal x capitalization x reverse x per-char leet factors."""
        probability = self.terminal_probability(segment.base)
        if probability == 0.0:
            return 0.0
        probability *= self.capitalization_probability(segment.capitalized)
        probability *= self.reverse_probability(segment.reversed_word)
        probability *= self.allcaps_probability(segment.all_caps)
        toggled = set(segment.toggled_offsets)
        for offset, ch in enumerate(segment.base):
            rule = leet_rule_for_char(ch)
            if rule is not None:
                probability *= self.leet_probability(rule, offset in toggled)
        return probability

    def derivation_probability(self, derivation: Derivation) -> float:
        """Product of all rule probabilities of the derivation (Fig. 11)."""
        probability = self.structure_probability(derivation.structure)
        for segment in derivation.segments:
            if probability == 0.0:
                return 0.0
            probability *= self.segment_probability(segment)
        return probability

    # --- introspection ---------------------------------------------------

    @property
    def total_passwords(self) -> int:
        """Number of (weighted) training passwords observed."""
        return self.structures.total

    def known_lengths(self) -> List[int]:
        return sorted(self.terminals)

    def rule_table(self) -> List[Tuple[str, str, float]]:
        """Flat ``(lhs, rhs, probability)`` view, as in Tables IV-VI."""
        rows: List[Tuple[str, str, float]] = []
        for structure, count in self.structures.most_common():
            rows.append(
                ("S", structure_label(structure), count / self.structures.total)
            )
        for length in self.known_lengths():
            table = self.terminals[length]
            for base, count in table.most_common():
                rows.append((f"B{length}", base, count / table.total))
        if self.capitalization.total:
            for fired in (True, False):
                rows.append(
                    (
                        "Capitalize",
                        "Yes" if fired else "No",
                        self.capitalization.probability(fired),
                    )
                )
        for rule in LEET_RULE_NAMES:
            table = self.leet[rule]
            if table.total:
                for fired in (True, False):
                    rows.append(
                        (rule, "Yes" if fired else "No", table.probability(fired))
                    )
        # The reverse extension only surfaces when it actually fired,
        # keeping the default tables identical to the paper's IV-VI.
        if self.reverse.count(True):
            for fired in (True, False):
                rows.append(
                    (
                        "Reverse",
                        "Yes" if fired else "No",
                        self.reverse.probability(fired),
                    )
                )
        if self.allcaps.count(True):
            for fired in (True, False):
                rows.append(
                    (
                        "AllCaps",
                        "Yes" if fired else "No",
                        self.allcaps.probability(fired),
                    )
                )
        return rows

    # --- sampling ---------------------------------------------------------

    def sample(self, rng: random.Random) -> Tuple[str, float]:
        """Draw one password from the grammar's distribution.

        Returns ``(password, probability)``; used by the Monte-Carlo
        guess-number estimator (Dell'Amico & Filippone, CCS'15).
        ``rng`` is a :class:`random.Random`.
        """
        derivation, probability = self.sample_derivation(rng)
        return derivation.surface(), probability

    def sample_derivation(
        self, rng: random.Random
    ) -> Tuple[Derivation, float]:
        """Draw one full derivation (not just its surface string).

        Exposing the derivation lets callers check whether the sample is
        *canonical* — i.e. whether the deterministic measuring parse of
        the surface reproduces exactly this derivation — which the
        meter's rejection sampler needs (see :meth:`FuzzyPSM.sample`).
        """
        if self.structures.total == 0:
            raise ValueError("cannot sample from an untrained grammar")
        structure = _sample_freqdist(self.structures, rng)
        segments: List[DerivedSegment] = []
        for length in structure:
            base = _sample_freqdist(self.terminals[length], rng)
            capitalized = (
                rng.random() < self.capitalization_probability(True)
            )
            reversed_word = (
                rng.random() < self.reverse_probability(True)
            )
            all_caps = (
                not capitalized
                and rng.random() < self.allcaps_probability(True)
            )
            toggles: List[int] = []
            for offset, ch in enumerate(base):
                rule = leet_rule_for_char(ch)
                if rule is not None and rng.random() < self.leet_probability(
                    rule, True
                ):
                    toggles.append(offset)
            segments.append(
                DerivedSegment(base, capitalized, tuple(toggles),
                               reversed_word, all_caps)
            )
        derivation = Derivation(tuple(segments))
        return derivation, self.derivation_probability(derivation)

    # --- serialisation -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable snapshot of every count table."""
        return {
            "structures": [
                [list(structure), count]
                for structure, count in self.structures.items()
            ],
            "terminals": {
                str(length): dict(table.items())
                for length, table in self.terminals.items()
            },
            "capitalization": {
                "yes": self.capitalization.count(True),
                "no": self.capitalization.count(False),
            },
            "reverse": {
                "yes": self.reverse.count(True),
                "no": self.reverse.count(False),
            },
            "allcaps": {
                "yes": self.allcaps.count(True),
                "no": self.allcaps.count(False),
            },
            "leet": {
                rule: {
                    "yes": table.count(True),
                    "no": table.count(False),
                }
                for rule, table in self.leet.items()
            },
        }

    def to_arrays(self) -> Dict[str, Any]:
        """Flat-column snapshot of every count table.

        The array-backed twin of :meth:`to_dict`, shaped for the binary
        model format in :mod:`repro.persistence`: integer columns are
        ``array('q')`` (written to disk verbatim and mmap-read back
        without parsing), strings are one concatenated blob plus a
        per-word character-length column.  Column order is table
        insertion order, so ``from_arrays(to_arrays())`` reproduces a
        grammar whose :meth:`to_dict` is byte-identical.

        Terminals are emitted grouped by length table; rebuilding via
        ``setdefault(len(word))`` recreates both the length-table
        insertion order and each table's internal order, because a
        table's key *is* its words' shared length.
        """
        structure_symbols = array("q")
        structure_lens = array("q")
        structure_counts = array("q")
        for structure, count in self.structures.items():
            structure_symbols.extend(structure)
            structure_lens.append(len(structure))
            structure_counts.append(count)
        terminal_parts: List[str] = []
        terminal_lens = array("q")
        terminal_counts = array("q")
        for table in self.terminals.values():
            for word, count in table.items():
                terminal_parts.append(word)
                terminal_lens.append(len(word))
                terminal_counts.append(count)
        booleans = array("q", (
            self.capitalization.count(True),
            self.capitalization.count(False),
            self.reverse.count(True),
            self.reverse.count(False),
            self.allcaps.count(True),
            self.allcaps.count(False),
        ))
        leet = array("q")
        for name in LEET_RULE_NAMES:
            table = self.leet[name]
            leet.append(table.count(True))
            leet.append(table.count(False))
        return {
            "structure_symbols": structure_symbols,
            "structure_lens": structure_lens,
            "structure_counts": structure_counts,
            "terminal_blob": "".join(terminal_parts),
            "terminal_lens": terminal_lens,
            "terminal_counts": terminal_counts,
            "booleans": booleans,
            "leet": leet,
        }

    @classmethod
    def from_arrays(cls, arrays: Dict[str, Any]) -> "FuzzyGrammar":
        """Rebuild a grammar from :meth:`to_arrays` columns.

        The fast deserialisation path: tables are bulk-built with
        :meth:`FrequencyDistribution.from_counts` instead of per-item
        :meth:`~FrequencyDistribution.add` calls, which is what makes
        binary model loads of RockYou-scale grammars cheap.

        Inconsistent columns raise ``ValueError``: a length column that
        does not split its blob or symbol column exactly, parallel
        columns of unequal length, a rule column of the wrong size, or
        a negative count.
        """
        symbols = arrays["structure_symbols"]
        structure_lens = arrays["structure_lens"]
        structure_counts = arrays["structure_counts"]
        blob = arrays["terminal_blob"]
        terminal_lens = arrays["terminal_lens"]
        terminal_counts = arrays["terminal_counts"]
        booleans = arrays["booleans"]
        leet = arrays["leet"]
        check_parallel({"structure_lens": structure_lens,
                        "structure_counts": structure_counts})
        check_partition(structure_lens, len(symbols), "structure_lens",
                        "structure_symbols")
        check_parallel({"terminal_lens": terminal_lens,
                        "terminal_counts": terminal_counts})
        check_partition(terminal_lens, len(blob), "terminal_lens",
                        "terminal_blob")
        for name, column, size in (
            ("booleans", booleans, 6),
            ("leet", leet, 2 * len(LEET_RULE_NAMES)),
        ):
            if len(column) != size:
                raise ValueError(
                    f"{name} holds {len(column)} counts, not {size}"
                )
        grammar = cls()
        structure_pairs: List[Tuple[Structure, int]] = []
        offset = 0
        for length, count in zip(structure_lens, structure_counts):
            structure_pairs.append(
                (tuple(symbols[offset:offset + length]), count)
            )
            offset += length
        grammar.structures = FrequencyDistribution.from_counts(
            structure_pairs
        )
        tables: Dict[int, List[Tuple[str, int]]] = {}
        offset = 0
        for length, count in zip(terminal_lens, terminal_counts):
            word = blob[offset:offset + length]
            offset += length
            tables.setdefault(length, []).append((word, count))
        grammar.terminals = {
            length: FrequencyDistribution.from_counts(pairs)
            for length, pairs in tables.items()
        }
        grammar.capitalization.add(True, booleans[0])
        grammar.capitalization.add(False, booleans[1])
        grammar.reverse.add(True, booleans[2])
        grammar.reverse.add(False, booleans[3])
        grammar.allcaps.add(True, booleans[4])
        grammar.allcaps.add(False, booleans[5])
        for index, name in enumerate(LEET_RULE_NAMES):
            grammar.leet[name].add(True, leet[2 * index])
            grammar.leet[name].add(False, leet[2 * index + 1])
        return grammar

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FuzzyGrammar":
        grammar = cls()
        for structure, count in data["structures"]:
            grammar.structures.add(tuple(structure), count)
        for length, table in data["terminals"].items():
            dist = grammar.terminals.setdefault(
                int(length), FrequencyDistribution()
            )
            for base, count in table.items():
                dist.add(base, count)
        grammar.capitalization.add(True, data["capitalization"]["yes"])
        grammar.capitalization.add(False, data["capitalization"]["no"])
        # "reverse" is absent from documents written before the
        # reverse-rule extension; an empty table reproduces the old
        # behaviour exactly (see reverse_probability).
        reverse = data.get("reverse", {"yes": 0, "no": 0})
        grammar.reverse.add(True, reverse["yes"])
        grammar.reverse.add(False, reverse["no"])
        allcaps = data.get("allcaps", {"yes": 0, "no": 0})
        grammar.allcaps.add(True, allcaps["yes"])
        grammar.allcaps.add(False, allcaps["no"])
        for rule, counts in data["leet"].items():
            grammar.leet[rule].add(True, counts["yes"])
            grammar.leet[rule].add(False, counts["no"])
        return grammar


def _sample_freqdist(
    dist: "FrequencyDistribution[_T]", rng: random.Random
) -> _T:
    """Draw one item from a frequency distribution by its counts."""
    target = rng.random() * dist.total
    cumulative = 0
    item: Optional[_T] = None
    for item, count in dist.items():
        cumulative += count
        if cumulative > target:
            return item
    if item is None:
        raise ValueError("cannot sample from an empty distribution")
    return item  # numeric edge: fall through to the last item
