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
segment (:data:`~repro.core.grammar.FlatParse`).  That is what the LRU
parse cache stores, what the frozen scoring kernel and
:meth:`FuzzyGrammar.observe` take, and so what scoring and training
move between parser and kernel: no object per segment.  The public
:meth:`FuzzyParser.parse` and :meth:`FuzzyParser.parse_cached` wrap a
flat parse in a :class:`ParsedPassword` for callers that want named
fields and :meth:`ParsedPassword.to_derivation`.

Performance notes (see DESIGN.md "Performance architecture"):

* dictionary matching runs against a :class:`CompiledTrie` — the
  leet-canonical snapshot of the base trie, one walk per reading —
  built lazily on first parse.  It is the only matcher a parse ever
  consults; the pointer :class:`PrefixTrie` is build input, and
  (through :meth:`FuzzyParser.from_compiled`, which accepts either
  trie) the reference the parse-level differential tests compare
  against;
* the reversed-word trie of the ``allow_reverse`` extension is also
  built lazily, on the first parse that needs it, so deserialising a
  reverse-enabled grammar that never parses costs nothing;
* :meth:`FuzzyParser.parse_flat_cached` memoises flat parses in a
  bounded LRU — password streams are Zipf-distributed, so a small cache
  absorbs most of a bulk-scoring workload;
* telemetry probes are counted per batch: a loop passes one
  :class:`ParseTally` to every parse and folds it in once
  (:func:`parse_tally`); with telemetry off it passes ``None``.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro import obs
from repro.core.compiled_trie import CompiledTrie
from repro.core.grammar import (
    Derivation,
    DerivedSegment,
    FlatParse,
    FlatSegment,
    segment_surface,
)
from repro.core.trie import PrefixTrie, capitalizable
from repro.util.charclasses import first_run

#: Default capacity of the per-parser LRU parse cache.
DEFAULT_PARSE_CACHE_SIZE = 65_536

#: A dictionary matcher: the compiled trie every production parse uses,
#: or a pointer trie standing in for it as a test-side reference.
Matcher = Union[CompiledTrie, PrefixTrie]


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


class ParseTally:
    """One batch's parse probes, counted as plain ints.

    A batch loop counts every parse it does into one tally, and
    :meth:`flush` folds the tally into telemetry with one ``incr_many``
    (DESIGN.md §9).  Parse-cache hits are counted, but only parses that
    did work count as ``parser.parse``.  One longest-prefix-match
    attempt is made per produced segment, so ``parser.match.attempts``
    is the segment count.  Zero-valued counters are not emitted (report
    readers default missing probes to 0).
    """

    __slots__ = (
        "hits", "misses", "evictions", "parses", "segments", "trie_hits",
        "capitalized", "leet", "reversed", "allcaps", "shapes",
    )

    def __init__(self) -> None:
        self.hits = self.misses = self.evictions = self.parses = 0
        self.segments = self.trie_hits = 0
        self.capitalized = self.leet = self.reversed = self.allcaps = 0
        #: Segments per parse -> parses of that many segments, for the
        #: ``parser.segments`` histogram.
        self.shapes: Dict[int, int] = {}

    def count(self, parse: FlatParse) -> None:
        """Count one parse that did work."""
        segments = parse[1]
        size = len(segments)
        self.parses += 1
        self.segments += size
        shapes = self.shapes
        shapes[size] = shapes.get(size, 0) + 1
        for _base, capitalized, toggled, reversed_word, all_caps, \
                dictionary in segments:
            if dictionary:
                self.trie_hits += 1
            # Most segments fire no rule at all.
            if capitalized or toggled or reversed_word or all_caps:
                self.capitalized += capitalized
                self.leet += len(toggled)
                self.reversed += reversed_word
                self.allcaps += all_caps

    def flush(self, telemetry: obs.Telemetry) -> None:
        """Fold the tally into ``telemetry``."""
        counts = [
            ("parser.cache.hit", self.hits),
            ("parser.cache.miss", self.misses),
            ("parser.cache.evict", self.evictions),
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
                 allow_allcaps: bool = False,
                 parse_cache_size: int = DEFAULT_PARSE_CACHE_SIZE) -> None:
        self._trie = trie
        self._allow_capitalization = allow_capitalization
        self._allow_leet = allow_leet
        self._allow_reverse = allow_reverse
        self._allow_allcaps = allow_allcaps
        # The forward matcher (compiled trie) and the reverse-rule trie
        # are both built lazily: ``__init__`` must stay cheap because a
        # parser is created every time a meter is deserialised, and a
        # reverse-enabled grammar may never parse at all.  The reverse
        # rule (the paper's named future work) matches a password
        # prefix against *reversed* dictionary words; a second trie
        # over the reversed words answers those queries in the same
        # left-to-right pass.  Palindromes are excluded: their reversed
        # reading is indistinguishable from the plain one.
        self._compiled: Optional[Matcher] = None
        self._reversed_matcher: Optional[Matcher] = None
        self._parse_cache: "OrderedDict[str, FlatParse]" = OrderedDict()
        self._parse_cache_size = parse_cache_size

    @property
    def trie(self) -> PrefixTrie:
        return self._trie

    @property
    def allow_reverse(self) -> bool:
        return self._allow_reverse

    @property
    def flags(self) -> Dict[str, bool]:
        """Constructor keywords reproducing this parser's behaviour
        (used to rebuild equivalent parsers in worker processes)."""
        return {
            "allow_capitalization": self._allow_capitalization,
            "allow_leet": self._allow_leet,
            "allow_reverse": self._allow_reverse,
            "allow_allcaps": self._allow_allcaps,
        }

    def config_key(self) -> Tuple:
        """Hashable identity of the parse behaviour: two parsers with
        equal keys and equal tries produce identical parses, so
        ``(password, config_key)`` fully determines a cached parse."""
        return (
            self._allow_capitalization, self._allow_leet,
            self._allow_reverse, self._allow_allcaps,
        )

    def cache_info(self) -> Dict[str, int]:
        """Occupancy and capacity of the LRU parse cache.

        Hit/miss/evict *counts* live in telemetry
        (``parser.cache.*`` — see DESIGN.md §9); this reports the
        structural side so profile reports can show both.
        """
        return {
            "size": len(self._parse_cache),
            "capacity": self._parse_cache_size,
        }

    # --- lazy matcher construction ------------------------------------

    @property
    def compiled_trie(self) -> Optional[Matcher]:
        """The forward matcher, or None when not (yet) built."""
        return self._compiled

    def ensure_compiled_matchers(
        self,
    ) -> Tuple[CompiledTrie, Optional[CompiledTrie]]:
        """Materialise and return the compiled matchers for broadcast.

        The parallel scoring engine pickles the flat-array
        :class:`CompiledTrie` snapshots into its worker pool **once**
        (pool initializer), instead of letting every worker re-walk a
        pointer trie — rebuilding tries per worker is what made small
        parallel training runs slower than serial (DESIGN.md §7).
        Returns ``(forward, reversed_or_None)``; the reversed matcher is
        built only when the reverse extension is on.  A reference
        parser built around pointer tries is never broadcast.
        """
        forward = self._forward_matcher()
        assert isinstance(forward, CompiledTrie)
        reversed_matcher: Optional[CompiledTrie] = None
        if self._allow_reverse:
            matcher = self._reverse_matcher()
            assert isinstance(matcher, CompiledTrie)
            reversed_matcher = matcher
        return forward, reversed_matcher

    @classmethod
    def from_compiled(
        cls,
        forward: Matcher,
        reversed_matcher: Optional[Matcher],
        min_length: int,
        flags: Dict[str, bool],
        parse_cache_size: int = DEFAULT_PARSE_CACHE_SIZE,
    ) -> "FuzzyParser":
        """Rebuild a parser around already-built matchers.

        The worker-side half of :meth:`ensure_compiled_matchers`: the
        pool initializer receives the compiled snapshots and ``flags``
        (the :attr:`flags` dict of the parent parser) and reconstructs
        a parser that parses identically without ever touching a
        pointer trie.  The backing :class:`PrefixTrie` is an empty
        husk — only the given matchers are consulted.  Both trie types
        expose the same ``longest_fuzzy_match``, so passing
        :class:`PrefixTrie` matchers yields the pointer-walk reference
        parser the differential tests compare against.
        """
        parser = cls(
            PrefixTrie(min_length=min_length),
            parse_cache_size=parse_cache_size,
            **flags,
        )
        parser._compiled = forward
        if flags.get("allow_reverse"):
            if reversed_matcher is None:
                raise ValueError(
                    "allow_reverse parser needs a reversed matcher"
                )
            parser._reversed_matcher = reversed_matcher
        return parser

    @property
    def reversed_trie_built(self) -> bool:
        """True once the reverse-rule trie has been materialised."""
        return self._reversed_matcher is not None

    def _forward_matcher(self) -> Matcher:
        if self._compiled is None:
            self._compiled = self._trie.compile()
        return self._compiled

    def _reverse_matcher(self) -> Matcher:
        if self._reversed_matcher is None:
            with obs.get().timer("trie.compile.seconds"):
                self._reversed_matcher = CompiledTrie(
                    [
                        word[::-1] for word in self._trie.iter_words()
                        if word != word[::-1]
                    ],
                    self._trie.min_length,
                )
        return self._reversed_matcher

    # --- parsing -------------------------------------------------------

    def parse(self, password: str) -> ParsedPassword:
        """Parse ``password`` into base segments (never fails)."""
        with parse_tally() as tally:
            parse = self.parse_flat(password, tally)
        return ParsedPassword.from_flat(password, parse)

    def parse_cached(self, password: str) -> ParsedPassword:
        """:meth:`parse` through the bounded LRU parse cache."""
        with parse_tally() as tally:
            parse = self.parse_flat_cached(password, tally)
        return ParsedPassword.from_flat(password, parse)

    def parse_flat(self, password: str,
                   tally: Optional[ParseTally] = None) -> FlatParse:
        """The flat parse of ``password``, counted into ``tally``."""
        parse = self._parse_flat(password)
        if tally is not None:
            tally.count(parse)
        return parse

    def parse_flat_cached(self, password: str,
                          tally: Optional[ParseTally] = None) -> FlatParse:
        """:meth:`parse_flat` through the bounded LRU parse cache.

        Parses depend only on the (immutable) trie and the parser
        flags, so memoisation is exact; bulk scoring of Zipf-shaped
        password streams hits the cache for the popular head.
        """
        cache = self._parse_cache
        parse = cache.get(password)
        if parse is not None:
            cache.move_to_end(password)
            if tally is not None:
                tally.hits += 1
            return parse
        parse = self._parse_flat(password)
        cache[password] = parse
        if len(cache) > self._parse_cache_size:
            cache.popitem(last=False)
            if tally is not None:
                tally.evictions += 1
        if tally is not None:
            tally.misses += 1
            tally.count(parse)
        return parse

    def _parse_flat(self, password: str) -> FlatParse:
        """The raw parse loop, free of telemetry probes."""
        extended = self._allow_reverse or self._allow_allcaps
        match = self._forward_matcher().longest_fuzzy_match
        capitalization = self._allow_capitalization
        leet = self._allow_leet
        structure: List[int] = []
        segments: List[FlatSegment] = []
        position = 0
        length = len(password)
        while position < length:
            segment: Optional[FlatSegment]
            if extended:
                segment = self._best_dictionary_segment(password, position)
            else:
                # One candidate direction only: no ranking needed.
                found = match(password, capitalization, leet, position)
                segment = None if found is None else (
                    found[0], found[2], found[3], False, False, True
                )
            if segment is None:
                segment = self._fallback_segment(password, position)
            size = len(segment[0])
            structure.append(size)
            segments.append(segment)
            position += size
        return tuple(structure), tuple(segments)

    def _best_dictionary_segment(self, password: str, position: int
                                 ) -> Optional[FlatSegment]:
        """Longest match over both reading directions, from ``position``.

        Preference order: longest consumed prefix, then fewest
        transformations (the reverse flag counts as one), then the
        forward reading, then lexicographic base — fully deterministic.
        """
        candidates: List[Tuple[int, int, int, str, FlatSegment]] = []
        forward = self._forward_matcher().longest_fuzzy_match(
            password,
            allow_capitalization=self._allow_capitalization,
            allow_leet=self._allow_leet,
            start=position,
        )
        if forward is not None:
            candidates.append((
                -forward.length, forward.transformations, 0, forward.base,
                (forward.base, forward.capitalized, forward.toggled_offsets,
                 False, False, True),
            ))
        if self._allow_reverse:
            # Capitalization is a first-letter-of-base rule; under
            # reversal it would surface at the segment's end, which
            # users do not do — only exact/leet readings are matched.
            backward = self._reverse_matcher().longest_fuzzy_match(
                password,
                allow_capitalization=False,
                allow_leet=self._allow_leet,
                start=position,
            )
            if backward is not None:
                base = backward.base[::-1]
                length = backward.length
                # Leet offsets arrive relative to the observed
                # (reversed) text; map them onto the stored base.
                toggles = tuple(sorted(
                    length - 1 - offset
                    for offset in backward.toggled_offsets
                ))
                candidates.append((
                    -length, backward.transformations + 1, 1, base,
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

        Matching runs against the lower-cased text; the candidate only
        stands if the *observed* prefix really is the all-caps surface
        of the matched base (so plain lower-case words never read as
        all-caps, and single-leading-letter words — where all-caps is
        indistinguishable from first-letter capitalization — lose to
        the cheaper first-letter reading via the direction tag).
        """
        match = self._forward_matcher().longest_fuzzy_match(
            remainder.lower(),
            allow_capitalization=False,
            allow_leet=self._allow_leet,
        )
        if match is None:
            return None
        base, length, _, toggles = match
        observed = remainder[:length]
        if segment_surface(base, False, toggles, False, True) != observed:
            return None
        # The rule must actually change something (reject pure-digit
        # or already-lower readings, which the exact match covers).
        if observed == base:
            return None
        return (
            -length, match.transformations + 1, 2, base,
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
