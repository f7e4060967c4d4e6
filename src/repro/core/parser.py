"""Parsing passwords into fuzzy-PCFG derivations (paper Sec. IV-C).

Every password — during training *and* measuring — is parsed by the same
deterministic procedure:

1. From the current position, find the **longest fuzzy prefix match** in
   the base-dictionary trie (exact / capitalized-first-letter / leet
   toggled characters).  The match becomes a dictionary base segment.
2. If no dictionary word matches, fall back to the **traditional PCFG**
   treatment: consume one maximal L/D/S character run as an opaque base
   segment (the paper's ``tyxdqd123 -> B6 B3`` example).
3. Repeat until the password is consumed.

The parse is produced *flat*: the structure plus one plain tuple per
segment (:data:`~repro.core.grammar.FlatParse`).  That is what the
frozen scoring kernel, :meth:`FuzzyGrammar.observe` and the batch
counter :func:`~repro.core.grammar.count_parses` take, and so what
scoring and training move between parser and kernel: no object per
segment.  The public
:meth:`FuzzyParser.parse` wraps a flat parse in a
:class:`ParsedPassword` for callers that want named fields and
:meth:`ParsedPassword.to_derivation`.

Performance notes (see DESIGN.md "Performance architecture"):

* each password is folded once onto its leet-canonical spelling
  (:func:`~repro.core.word_index.canonical`), and dictionary matching
  probes a :class:`~repro.core.word_index.WordIndex` — the base
  dictionary keyed by canonical spelling — a few dict probes per
  segment start.  The index is built lazily on first parse and is the
  only matcher a parse ever consults; the :class:`PrefixTrie` is its
  build input.  The tests' pointer trie (``tests/pointer_trie.py``),
  behind the same ``match`` signature
  (``tests.conftest.pointer_parser``), is the reference the
  parse-level differential tests compare against;
* the reversed-word index of the ``allow_reverse`` extension is also
  built lazily, on the first parse that needs it, so deserialising a
  reverse-enabled grammar that never parses costs nothing;
* the parser keeps no parse.  Callers that see repeats deduplicate
  before parsing instead: training counts each distinct password of a
  bounded window once (:mod:`repro.core.training`), and bulk scoring
  memoises final probabilities (the meter's score memo,
  :func:`repro.core.meter.score_many`);
* telemetry probes are counted per batch: a loop passes one
  :class:`ParseTally` to every parse, which only keeps the parse's
  segments; the tally counts what it kept in one loop per
  :data:`TALLY_BATCH` parses and folds the totals in once
  (:func:`parse_tally`); with telemetry off the loop passes ``None``.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.core.grammar import (
    Derivation,
    DerivedSegment,
    FlatParse,
    FlatSegment,
    segment_surface,
)
from repro.core.trie import PrefixTrie, capitalizable
from repro.core.word_index import WordIndex, canonical
from repro.util.charclasses import first_run


class SegmentKind(enum.Enum):
    """How a segment was obtained — informational only; the grammar
    pools both kinds into the same ``B_n`` tables (Table IV)."""

    DICTIONARY = "dictionary"
    FALLBACK = "fallback"


@dataclass(frozen=True)
class ParsedSegment:
    """A parsed base segment plus its transformation decisions."""

    base: str
    capitalized: bool
    toggled_offsets: Tuple[int, ...]
    kind: SegmentKind
    reversed_word: bool = False
    all_caps: bool = False

    def to_derived(self) -> DerivedSegment:
        return DerivedSegment(
            self.base, self.capitalized, self.toggled_offsets,
            self.reversed_word, self.all_caps,
        )


@dataclass(frozen=True)
class ParsedPassword:
    """The full parse of one password."""

    password: str
    segments: Tuple[ParsedSegment, ...]

    @classmethod
    def from_flat(cls, password: str, parse: FlatParse) -> "ParsedPassword":
        """Name the fields of a flat parse of ``password``."""
        return cls(password, tuple(
            ParsedSegment(
                base, capitalized, toggled,
                SegmentKind.DICTIONARY if dictionary
                else SegmentKind.FALLBACK,
                reversed_word, all_caps,
            )
            for base, capitalized, toggled, reversed_word, all_caps,
            dictionary in parse[1]
        ))

    @property
    def flat(self) -> FlatParse:
        """The flat parse this was built from."""
        return self.structure, tuple(
            (seg.base, seg.capitalized, seg.toggled_offsets,
             seg.reversed_word, seg.all_caps,
             seg.kind is SegmentKind.DICTIONARY)
            for seg in self.segments
        )

    @property
    def structure(self) -> Tuple[int, ...]:
        return tuple(len(seg.base) for seg in self.segments)

    @property
    def uses_dictionary(self) -> bool:
        """True when at least one segment came from the base dictionary."""
        return any(seg.kind is SegmentKind.DICTIONARY for seg in self.segments)

    @property
    def transformation_count(self) -> int:
        return sum(
            int(seg.capitalized) + len(seg.toggled_offsets)
            + int(seg.reversed_word) + int(seg.all_caps)
            for seg in self.segments
        )

    def to_derivation(self) -> Derivation:
        return Derivation(tuple(seg.to_derived() for seg in self.segments))


#: Parses a tally keeps before it counts them.  Their segment tuples
#: stay alive until then, and a cyclic collection that runs meanwhile
#: promotes them to an older generation, which brings full collections
#: forward.  At 32 parses (about 100 tuples) enabled scoring runs as
#: many collections as the noop backend; at 128 it ran 6% more young
#: ones and the full ones came sooner.  Counting costs about the same
#: per parse at 32 as at 128.
TALLY_BATCH = 32


class ParseTally:
    """One batch's parse probes, counted in one pass.

    A batch loop hands one tally to every parse it does, and
    :meth:`FuzzyParser.parse_flat` only appends the parse's segments to
    ``pending``: no method call per parse.  :meth:`count` counts the
    pending parses in one loop over plain locals, once
    :data:`TALLY_BATCH` have gathered and when the batch ends, and
    :meth:`flush` folds the totals into telemetry with one
    ``incr_many`` (DESIGN.md §9).  One longest-prefix-match attempt is
    made per produced segment, so ``parser.match.attempts`` is the
    segment count.  Zero-valued counters are not emitted (report
    readers default missing probes to 0).
    """

    __slots__ = (
        "pending", "parses", "segments", "trie_hits",
        "capitalized", "leet", "reversed", "allcaps", "shapes",
    )

    def __init__(self) -> None:
        #: The segments of each parse not counted yet.
        self.pending: List[Tuple[FlatSegment, ...]] = []
        self.parses = self.segments = self.trie_hits = 0
        self.capitalized = self.leet = self.reversed = self.allcaps = 0
        #: Segments per parse -> parses of that many segments, for the
        #: ``parser.segments`` histogram.
        self.shapes: Dict[int, int] = {}

    def count(self) -> None:
        """Count the pending parses into the totals and drop them."""
        pending = self.pending
        shapes = self.shapes
        segments = trie_hits = capitalized = leet = reversed_ = allcaps = 0
        for parsed in pending:
            size = len(parsed)
            segments += size
            shapes[size] = shapes.get(size, 0) + 1
            for _base, cap, toggled, reversed_word, all_caps, \
                    dictionary in parsed:
                if dictionary:
                    trie_hits += 1
                # Most segments fire no rule at all.
                if cap or toggled or reversed_word or all_caps:
                    capitalized += cap
                    leet += len(toggled)
                    reversed_ += reversed_word
                    allcaps += all_caps
        self.parses += len(pending)
        self.segments += segments
        self.trie_hits += trie_hits
        self.capitalized += capitalized
        self.leet += leet
        self.reversed += reversed_
        self.allcaps += allcaps
        pending.clear()

    def flush(self, telemetry: obs.Telemetry) -> None:
        """Count what is pending and fold the totals into ``telemetry``."""
        self.count()
        counts = [
            ("parser.parse", self.parses),
            ("parser.match.attempts", self.segments),
            ("parser.segment.trie_hit", self.trie_hits),
            ("parser.segment.fallback", self.segments - self.trie_hits),
            ("parser.rule.capitalization", self.capitalized),
            ("parser.rule.leet", self.leet),
            ("parser.rule.reverse", self.reversed),
            ("parser.rule.allcaps", self.allcaps),
        ]
        telemetry.incr_many([item for item in counts if item[1]])
        for segments, parses in self.shapes.items():
            telemetry.observe("parser.segments", float(segments), parses)


@contextmanager
def parse_tally() -> Iterator[Optional[ParseTally]]:
    """A :class:`ParseTally` for one batch, flushed when it ends.

    Yields ``None`` when telemetry is disabled, so the loop's parses
    count nothing.
    """
    telemetry = obs.get()
    if not telemetry.enabled:
        yield None
        return
    tally = ParseTally()
    try:
        yield tally
    finally:
        tally.flush(telemetry)


class FuzzyParser:
    """Deterministic longest-prefix-match parser over a base trie.

    >>> trie = PrefixTrie(["password", "123qwe"])
    >>> parser = FuzzyParser(trie)
    >>> parse = parser.parse("Password123")
    >>> [seg.base for seg in parse.segments]
    ['password', '123']
    >>> parse.segments[0].capitalized
    True
    >>> parse.structure
    (8, 3)
    """

    def __init__(self, trie: PrefixTrie, allow_capitalization: bool = True,
                 allow_leet: bool = True,
                 allow_reverse: bool = False,
                 allow_allcaps: bool = False) -> None:
        self._trie = trie
        self._allow_capitalization = allow_capitalization
        self._allow_leet = allow_leet
        self._allow_reverse = allow_reverse
        self._allow_allcaps = allow_allcaps
        # The forward index and the reverse-rule index are both built
        # lazily: ``__init__`` must stay cheap because a parser is
        # created every time a meter is deserialised, and a
        # reverse-enabled grammar may never parse at all.  The reverse
        # rule (the paper's named future work) matches a password
        # prefix against *reversed* dictionary words; a second index
        # over the reversed words answers those queries from the same
        # folded password.  Palindromes are excluded: their reversed
        # reading is indistinguishable from the plain one.
        self._index: Optional[WordIndex] = None
        self._reversed_index: Optional[WordIndex] = None

    @property
    def trie(self) -> PrefixTrie:
        return self._trie

    @property
    def allow_reverse(self) -> bool:
        return self._allow_reverse

    @property
    def flags(self) -> Dict[str, bool]:
        """Constructor keywords reproducing this parser's behaviour
        (:meth:`from_compiled` takes them to rebuild an equivalent
        parser around given matchers)."""
        return {
            "allow_capitalization": self._allow_capitalization,
            "allow_leet": self._allow_leet,
            "allow_reverse": self._allow_reverse,
            "allow_allcaps": self._allow_allcaps,
        }

    # --- lazy matcher construction ------------------------------------

    @property
    def word_index(self) -> Optional[WordIndex]:
        """The forward index, or None when not (yet) built."""
        return self._index

    @classmethod
    def from_compiled(
        cls,
        forward: WordIndex,
        reversed_index: Optional[WordIndex],
        min_length: int,
        flags: Dict[str, bool],
    ) -> "FuzzyParser":
        """A parser around already-built matchers.

        ``flags`` is the :attr:`flags` dict of the parser to imitate.
        The backing :class:`PrefixTrie` is an empty husk: only the
        given matchers are consulted, through their ``match`` method,
        which is how the tests' pointer-trie reference parser
        (``tests/conftest.pointer_parser``) puts pointer tries behind
        the parse loop.
        """
        parser = cls(PrefixTrie(min_length=min_length), **flags)
        parser._index = forward
        if flags.get("allow_reverse"):
            if reversed_index is None:
                raise ValueError(
                    "allow_reverse parser needs a reversed index"
                )
            parser._reversed_index = reversed_index
        return parser

    @property
    def reversed_index_built(self) -> bool:
        """True once the reverse-rule index has been materialised."""
        return self._reversed_index is not None

    def _forward_matcher(self) -> WordIndex:
        if self._index is None:
            self._index = self._trie.compile()
        return self._index

    def _reverse_matcher(self) -> WordIndex:
        if self._reversed_index is None:
            with obs.get().timer("trie.compile.seconds"):
                self._reversed_index = WordIndex(
                    [
                        word[::-1] for word in self._trie.iter_words()
                        if word != word[::-1]
                    ],
                    self._trie.min_length,
                )
        return self._reversed_index

    # --- parsing -------------------------------------------------------

    def parse(self, password: str) -> ParsedPassword:
        """Parse ``password`` into base segments (never fails)."""
        with parse_tally() as tally:
            parse = self.parse_flat(password, tally)
        return ParsedPassword.from_flat(password, parse)

    def parse_flat(self, password: str,
                   tally: Optional[ParseTally] = None) -> FlatParse:
        """The flat parse of ``password``, counted into ``tally``."""
        parse = self._parse_flat(password)
        if tally is not None:
            pending = tally.pending
            pending.append(parse[1])
            if len(pending) >= TALLY_BATCH:
                tally.count()
        return parse

    def _parse_flat(self, password: str) -> FlatParse:
        """The raw parse loop, free of telemetry probes."""
        folded = canonical(password)
        extended = self._allow_reverse or self._allow_allcaps
        match = self._forward_matcher().match
        capitalization = self._allow_capitalization
        leet = self._allow_leet
        structure: List[int] = []
        segments: List[FlatSegment] = []
        position = 0
        length = len(password)
        while position < length:
            segment: Optional[FlatSegment]
            if extended:
                segment = self._best_dictionary_segment(
                    password, folded, position
                )
            else:
                # One candidate direction only: no ranking needed.
                segment = match(password, folded, position, capitalization,
                                leet)
            if segment is None:
                segment = self._fallback_segment(password, position)
            size = len(segment[0])
            structure.append(size)
            segments.append(segment)
            position += size
        return tuple(structure), tuple(segments)

    def _best_dictionary_segment(self, password: str, folded: str,
                                 position: int) -> Optional[FlatSegment]:
        """Longest match over both reading directions, from ``position``.

        Preference order: longest consumed prefix, then fewest
        transformations (the reverse flag counts as one), then the
        forward reading, then lexicographic base — fully deterministic.
        """
        candidates: List[Tuple[int, int, int, str, FlatSegment]] = []
        leet = self._allow_leet
        forward = self._forward_matcher().match(
            password, folded, position, self._allow_capitalization, leet
        )
        if forward is not None:
            base, capitalized, toggles = forward[:3]
            candidates.append((
                -len(base), capitalized + len(toggles), 0, base, forward,
            ))
        if self._allow_reverse:
            # Capitalization is a first-letter-of-base rule; under
            # reversal it would surface at the segment's end, which
            # users do not do — only exact/leet readings are matched.
            backward = self._reverse_matcher().match(
                password, folded, position, False, leet
            )
            if backward is not None:
                reversed_base, _, reversed_toggles = backward[:3]
                base = reversed_base[::-1]
                length = len(base)
                # Leet offsets arrive relative to the observed
                # (reversed) text; map them onto the stored base.
                toggles = tuple(sorted(
                    length - 1 - offset for offset in reversed_toggles
                ))
                candidates.append((
                    -length, len(toggles) + 1, 1, base,
                    (base, False, toggles, True, False, True),
                ))
        if self._allow_allcaps:
            allcaps = self._allcaps_candidate(password[position:])
            if allcaps is not None:
                candidates.append(allcaps)
        if not candidates:
            return None
        return min(candidates, key=lambda item: item[:4])[4]

    def _allcaps_candidate(
        self, remainder: str
    ) -> Optional[Tuple[int, int, int, str, FlatSegment]]:
        """An all-caps reading: the observed prefix is a stored word
        with every letter upper-cased (limitation-#2 extension).

        Matching probes the lower-cased text; the candidate only
        stands if the *observed* prefix really is the all-caps surface
        of the matched base (so plain lower-case words never read as
        all-caps, and single-leading-letter words — where all-caps is
        indistinguishable from first-letter capitalization — lose to
        the cheaper first-letter reading via the direction tag).
        """
        lowered = remainder.lower()
        match = self._forward_matcher().match(
            lowered, canonical(lowered), 0, False, self._allow_leet
        )
        if match is None:
            return None
        base, _, toggles = match[:3]
        length = len(base)
        observed = remainder[:length]
        if segment_surface(base, False, toggles, False, True) != observed:
            return None
        # The rule must actually change something (reject pure-digit
        # or already-lower readings, which the exact match covers).
        if observed == base:
            return None
        return (
            -length, len(toggles) + 1, 2, base,
            (base, False, toggles, False, True, True),
        )

    def _fallback_segment(self, password: str,
                          position: int) -> FlatSegment:
        """One maximal L/D/S run, canonicalised for the grammar.

        Only the capitalization of the *first* character is modelled
        (paper limitation #2), so the base form lower-cases just that
        character; no leet decisions are inferred for fallback runs.
        A first character that is not :func:`capitalizable` stays as it
        is, so the derivation spells the run back.
        """
        run = first_run(password, position)
        first = run[0]
        if first.isupper() and capitalizable(first):
            return (first.lower() + run[1:], True, (), False, False, False)
        return (run, False, (), False, False, False)
