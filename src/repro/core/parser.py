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

The resulting sequence of segments, each with its capitalization flag
and leet-toggle offsets, is a :class:`~repro.core.grammar.Derivation`
whose probability the grammar can evaluate.

Performance notes (see DESIGN.md "Performance architecture"):

* dictionary matching runs against a :class:`CompiledTrie` — the
  flat-array snapshot of the base trie — built lazily on first parse.
  It is the only matcher a parse ever consults; the pointer
  :class:`PrefixTrie` is build input, and (through
  :meth:`FuzzyParser.from_compiled`, which accepts either trie) the
  reference the parse-level differential tests compare against;
* the reversed-word trie of the ``allow_reverse`` extension is also
  built lazily, on the first parse that needs it, so deserialising a
  reverse-enabled grammar that never parses costs nothing;
* :meth:`FuzzyParser.parse_cached` memoises parses in a bounded LRU —
  password streams are Zipf-distributed, so a small cache absorbs most
  of a bulk-scoring workload.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.core.compiled_trie import CompiledTrie
from repro.core.grammar import Derivation, DerivedSegment
from repro.core.trie import PrefixTrie
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


def _record_parse(
    telemetry: obs.Telemetry,
    parsed: ParsedPassword,
    cache_miss: bool = False,
) -> None:
    """Report one completed parse to the active telemetry backend.

    Runs only when a collecting backend is installed, and only for
    actual parse work — parse-cache hits are counted separately, under
    ``parser.cache.hit``; a miss that triggered this parse folds its
    ``parser.cache.miss`` into the same dispatch via ``cache_miss``.
    Zero-valued counters are not emitted (report readers default
    missing probes to 0), and the whole group goes through one
    ``incr_many`` call.

    The hot path never calls this directly: parses are *deferred* —
    the parser buffers ``(parsed, cache_miss)`` events on the backend
    (one list append per parse) and this aggregation runs when a
    reader drains the buffer.  That deferral is what keeps the
    enabled-backend overhead of a scoring sweep inside the <5% budget.
    Probe inventory: DESIGN.md §9.
    """
    segments = parsed.segments
    counts = [("parser.parse", 1)]
    append = counts.append
    if cache_miss:
        append(("parser.cache.miss", 1))
    if segments:
        trie_hits = fallbacks = 0
        capitalized = leet = reversed_words = allcaps = 0
        for segment in segments:
            if segment.kind is SegmentKind.DICTIONARY:
                trie_hits += 1
            else:
                fallbacks += 1
            if segment.capitalized:
                capitalized += 1
            leet += len(segment.toggled_offsets)
            if segment.reversed_word:
                reversed_words += 1
            if segment.all_caps:
                allcaps += 1
        # One longest-prefix-match attempt per produced segment: the
        # parse loop consults the matcher exactly once per segment,
        # falling back to an L/D/S run when the attempt misses.
        append(("parser.match.attempts", len(segments)))
        if trie_hits:
            append(("parser.segment.trie_hit", trie_hits))
        if fallbacks:
            append(("parser.segment.fallback", fallbacks))
        if capitalized:
            append(("parser.rule.capitalization", capitalized))
        if leet:
            append(("parser.rule.leet", leet))
        if reversed_words:
            append(("parser.rule.reverse", reversed_words))
        if allcaps:
            append(("parser.rule.allcaps", allcaps))
    telemetry.incr_many(counts)
    telemetry.observe("parser.segments", float(len(segments)))


def _record_parse_event(
    telemetry: obs.Telemetry, event: Tuple[ParsedPassword, bool]
) -> None:
    """Deferred-event handler: unpack and aggregate one parse."""
    parsed, cache_miss = event
    _record_parse(telemetry, parsed, cache_miss)


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
        self._parse_cache: "OrderedDict[str, ParsedPassword]" = OrderedDict()
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
            reversed_trie = PrefixTrie(min_length=self._trie.min_length)
            for word in self._trie.iter_words():
                if word != word[::-1]:
                    reversed_trie.insert(word[::-1])
            self._reversed_matcher = reversed_trie.compile()
        return self._reversed_matcher

    # --- parsing -------------------------------------------------------

    def parse(self, password: str) -> ParsedPassword:
        """Parse ``password`` into base segments (never fails)."""
        parsed = self._parse_segments(password)
        telemetry = obs.get()
        if telemetry.enabled:
            telemetry.defer(_record_parse_event, (parsed, False))
        return parsed

    def _parse_segments(self, password: str) -> ParsedPassword:
        """The raw parse loop, free of telemetry probes."""
        segments: List[ParsedSegment] = []
        position = 0
        while position < len(password):
            segment = self._best_dictionary_segment(password, position)
            if segment is None:
                segment = self._fallback_segment(password, position)
            segments.append(segment)
            position += len(segment.base)
        return ParsedPassword(password, tuple(segments))

    def parse_cached(self, password: str) -> ParsedPassword:
        """:meth:`parse` through the bounded LRU parse cache.

        Parses depend only on the (immutable) trie and the parser
        flags, so memoisation is exact; bulk scoring of Zipf-shaped
        password streams hits the cache for the popular head.
        """
        telemetry = obs.get()
        cache = self._parse_cache
        parsed = cache.get(password)
        if parsed is not None:
            cache.move_to_end(password)
            if telemetry.enabled:
                telemetry.incr("parser.cache.hit")
            return parsed
        parsed = self._parse_segments(password)
        if telemetry.enabled:
            telemetry.defer(_record_parse_event, (parsed, True))
        cache[password] = parsed
        if len(cache) > self._parse_cache_size:
            cache.popitem(last=False)
            if telemetry.enabled:
                telemetry.incr("parser.cache.evict")
        return parsed

    def _best_dictionary_segment(self, password: str, position: int
                                 ) -> Optional[ParsedSegment]:
        """Longest match over both reading directions, from ``position``.

        Preference order: longest consumed prefix, then fewest
        transformations (the reverse flag counts as one), then the
        forward reading, then lexicographic base — fully deterministic.
        """
        forward = self._forward_matcher().longest_fuzzy_match(
            password,
            allow_capitalization=self._allow_capitalization,
            allow_leet=self._allow_leet,
            start=position,
        )
        if forward is not None and not self._allow_reverse \
                and not self._allow_allcaps:
            # Fast path: with the extensions off there is exactly one
            # candidate direction, no ranking needed.
            return ParsedSegment(
                base=forward.base,
                capitalized=forward.capitalized,
                toggled_offsets=forward.toggled_offsets,
                kind=SegmentKind.DICTIONARY,
            )
        remainder = password[position:]
        candidates: List[Tuple[int, int, int, str, ParsedSegment]] = []
        if forward is not None:
            candidates.append((
                -forward.length, forward.transformations, 0,
                forward.base,
                ParsedSegment(
                    base=forward.base,
                    capitalized=forward.capitalized,
                    toggled_offsets=forward.toggled_offsets,
                    kind=SegmentKind.DICTIONARY,
                ),
            ))
        if self._allow_reverse:
            # Capitalization is a first-letter-of-base rule; under
            # reversal it would surface at the segment's end, which
            # users do not do — only exact/leet readings are matched.
            backward = self._reverse_matcher().longest_fuzzy_match(
                remainder,
                allow_capitalization=False,
                allow_leet=self._allow_leet,
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
                    ParsedSegment(
                        base=base,
                        capitalized=False,
                        toggled_offsets=toggles,
                        kind=SegmentKind.DICTIONARY,
                        reversed_word=True,
                    ),
                ))
        if self._allow_allcaps:
            allcaps = self._allcaps_candidate(remainder)
            if allcaps is not None:
                candidates.append(allcaps)
        if not candidates:
            return None
        candidates.sort(key=lambda item: item[:4])
        return candidates[0][4]

    def _allcaps_candidate(
        self, remainder: str
    ) -> Optional[Tuple[int, int, int, str, ParsedSegment]]:
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
        segment = ParsedSegment(
            base=match.base,
            capitalized=False,
            toggled_offsets=match.toggled_offsets,
            kind=SegmentKind.DICTIONARY,
            all_caps=True,
        )
        surface = segment.to_derived().surface()
        observed = remainder[:match.length]
        if surface != observed:
            return None
        # The rule must actually change something (reject pure-digit
        # or already-lower readings, which the exact match covers).
        if observed == match.base:
            return None
        return (
            -match.length, match.transformations + 1, 2, match.base,
            segment,
        )

    def _fallback_segment(self, password: str,
                          position: int) -> ParsedSegment:
        """One maximal L/D/S run, canonicalised for the grammar.

        Only the capitalization of the *first* character is modelled
        (paper limitation #2), so the base form lower-cases just that
        character; no leet decisions are inferred for fallback runs.
        """
        run = first_run(password, position)
        capitalized = run[0].isupper()
        base = run[0].lower() + run[1:] if capitalized else run
        return ParsedSegment(
            base=base,
            capitalized=capitalized,
            toggled_offsets=(),
            kind=SegmentKind.FALLBACK,
        )
