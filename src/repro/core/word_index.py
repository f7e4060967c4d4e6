"""Leet-canonical word index: the base dictionary as two dicts.

The six leet pairs of Table VI (``a@ s$ o0 i1 e3 t7``) form a closed,
symmetric set of two-member classes, and a leet toggle only ever swaps
a character for the other member of its class.  So a stored word
matches an observed string under the exact/leet reading exactly when
both spell the same *canonical* string, where ``@ $ 0 1 3 7`` fold onto
``a s o i e t`` (:func:`canonical`).  :class:`WordIndex` keeps

* ``words`` — each canonical word mapped to its stored words, in
  lexicographic order and concatenated (all are as long as the key);
* ``lengths`` — each canonical prefix of ``min_length`` characters
  mapped to the lengths of the canonical words that start with it,
  longest first.

The parser folds a password once, and a match at a segment start is a
handful of dict probes, not a walk: one on the first ``min_length``
canonical characters, then one on ``canonical[start:start + L]`` for
each length ``L`` it returns that still fits, longest first.  The first
length whose words hold an admissible one is the match:

* under the exact/leet reading every word of that canonical spelling
  matches, with a toggle wherever the stored and observed characters
  differ;
* when the first observed character is :func:`capitalizable`, the
  capitalised reading probes from the lowered character.  There the
  first stored character must equal the lowered one: the rule allows
  no leet toggle on a capitalised letter.

Among a length's words the match is the exact word, else the one with
the fewest toggles, then the smallest base.  Across the two readings
the longer match wins, then the one with fewer transformations, then
the smaller base: the choice of the pointer-trie search the tests
hold as the reference (``tests/pointer_trie.py``).
With ``allow_leet=False`` only a word spelled exactly like the observed
text is admissible.

One position costs at most one probe per distinct stored length under
its prefix that fits in the rest of the password.  Building the index
is one pass over the sorted word list.
"""

from __future__ import annotations

from itertools import compress, count
from operator import ne
from typing import Dict, Iterable, Optional, Set, Tuple

from repro import obs
from repro.core.grammar import FlatSegment
from repro.core.trie import capitalizable
from repro.util.leet import LEET_BY_SUBSTITUTE

#: Leet substitute -> letter, for :func:`canonical` (``str.translate``).
_CANON = str.maketrans(LEET_BY_SUBSTITUTE)

#: The same fold as a ``bytes.translate`` table.  Every substitute is
#: ASCII, and folding ASCII text through its bytes takes about a
#: quarter of the time ``str.translate`` takes with a dict.
_CANON_BYTES = bytes.maketrans(
    "".join(LEET_BY_SUBSTITUTE).encode(),
    "".join(LEET_BY_SUBSTITUTE.values()).encode(),
)


def canonical(text: str) -> str:
    """``text`` with every leet substitute folded onto its letter.

    >>> canonical("p@ssw0rd")
    'password'
    """
    if text.isascii():
        return text.encode().translate(_CANON_BYTES).decode()
    return text.translate(_CANON)


def _toggles(word: str, observed: str) -> Tuple[int, ...]:
    """Offsets where ``word`` and the equally long ``observed`` differ."""
    return tuple(compress(count(), map(ne, word, observed)))


def _pick(held: str, observed: str, size: int, lowered: Optional[str],
          leet: bool) -> Optional[Tuple[str, Tuple[int, ...]]]:
    """The admissible word of ``held`` for ``observed``, with its toggles.

    ``held`` concatenates the stored words of one canonical spelling,
    each ``size`` long, in lexicographic order; ``lowered`` is the
    capitalised reading's first stored character (``None`` for the
    exact/leet reading).  The exact word wins, else the fewest toggles;
    the first of those is the smallest base.
    """
    best: Optional[str] = None
    fewest: Tuple[int, ...] = ()
    for index in range(0, len(held), size):
        word = held[index:index + size]
        if word == observed:
            return word, ()
        if not leet or (lowered is not None and word[0] != lowered):
            continue
        toggles = _toggles(word, observed)
        if best is None or len(toggles) < len(fewest):
            best, fewest = word, toggles
    return None if best is None else (best, fewest)


class WordIndex:
    """Immutable leet-canonical index answering the parser's fuzzy
    longest-prefix queries (see the module docstring).

    Build one with :meth:`PrefixTrie.compile`:

    >>> from repro.core.trie import PrefixTrie
    >>> index = PrefixTrie(["password", "p@ssword", "123qwe"]).compile()
    >>> text = "P@ssw0rd123"
    >>> index.match(text, canonical(text), 0, True, True)
    ('p@ssword', True, (5,), False, False, True)
    """

    __slots__ = ("_words", "_lengths", "_min_length", "_size")

    _words: Dict[str, str]
    _lengths: Dict[str, Tuple[int, ...]]
    _min_length: int
    _size: int

    def __init__(self, words: Iterable[str], min_length: int) -> None:
        """Index distinct ``words`` (any order), each at least
        ``min_length`` long.

        Prefer :meth:`PrefixTrie.compile` over calling this directly.
        """
        ordered = sorted(words)
        if ordered and min(map(len, ordered)) < min_length:
            raise ValueError(
                f"every indexed word must be at least {min_length} long"
            )
        # One translation for every word: folding keeps each length,
        # so a word's canonical spelling is its own span of ``spelled``.
        spelled = canonical("".join(ordered))
        held: Dict[str, str] = {}
        end = 0
        for word in ordered:
            start, end = end, end + len(word)
            key = spelled[start:end]
            prior = held.get(key)
            # Words arrive sorted, so each key's words are in
            # lexicographic order.
            held[key] = word if prior is None else prior + word
        sizes: Dict[str, Set[int]] = {}
        for key in held:
            sizes.setdefault(key[:min_length], set()).add(len(key))
        self._words = held
        self._lengths = {
            prefix: tuple(sorted(found, reverse=True))
            for prefix, found in sizes.items()
        }
        self._min_length = min_length
        self._size = len(ordered)
        telemetry = obs.get()
        if telemetry.enabled:
            telemetry.incr("trie.compiled")
            telemetry.observe("trie.compiled.keys", float(len(held)))

    # --- basic queries ------------------------------------------------

    @property
    def min_length(self) -> int:
        return self._min_length

    def __len__(self) -> int:
        """Number of stored words."""
        return self._size

    # --- prefix matching ----------------------------------------------

    def match(self, text: str, folded: str, start: int,
              capitalization: bool, leet: bool) -> Optional[FlatSegment]:
        """The preferred match at ``text[start:]`` (``start`` inside
        ``text``), as a forward dictionary segment ``(base,
        capitalized, toggles, False, False, True)``, or ``None``.

        ``folded`` is ``canonical(text)``: the parser folds each
        password once, and this is its hot path.  Most positions start
        no stored word, so the prefix probe comes first.
        """
        first = text[start]
        if capitalization and first.isupper() and capitalizable(first):
            return self._capitalised(text, folded, start, first.lower(),
                                     leet)
        found = self._lengths.get(folded[start:start + self._min_length])
        if found is None:
            return None
        picked = self._longest(text, folded, start, found, None, leet)
        if picked is None:
            return None
        return picked[0], False, picked[1], False, False, True

    def _longest(self, text: str, folded: str, start: int,
                 found: Tuple[int, ...], lowered: Optional[str],
                 leet: bool) -> Optional[Tuple[str, Tuple[int, ...]]]:
        """The longest admissible ``(word, toggles)`` of one reading,
        probing each length of ``found`` that fits, longest first."""
        words = self._words
        room = len(text) - start
        for size in found:
            if size > room:
                continue
            end = start + size
            held = words.get(folded[start:end])
            if held is None:
                continue
            observed = text[start:end]
            if held == observed:
                return observed, ()
            picked = _pick(held, observed, size, lowered, leet)
            if picked is not None:
                return picked
        return None

    def _capitalised(self, text: str, folded: str, start: int,
                     lowered: str, leet: bool) -> Optional[FlatSegment]:
        """The better of both readings of a segment that starts with a
        capital: longer, then fewer transformations, then smaller base.
        The capitalised reading probes from the lowered character."""
        rest = folded[start + 1:start + self._min_length]
        found = self._lengths.get(folded[start] + rest)
        plain = None if found is None else self._longest(
            text, folded, start, found, None, leet
        )
        found = self._lengths.get(lowered + rest)
        shifted = None if found is None else self._longest(
            lowered + text[start + 1:], lowered + folded[start + 1:], 0,
            found, lowered, leet,
        )
        if shifted is not None and (
            plain is None
            or len(shifted[0]) > len(plain[0])
            or (len(shifted[0]) == len(plain[0])
                and (1 + len(shifted[1]), shifted[0])
                < (len(plain[1]), plain[0]))
        ):
            return shifted[0], True, shifted[1], False, False, True
        if plain is None:
            return None
        return plain[0], False, plain[1], False, False, True
