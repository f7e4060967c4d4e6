"""Leet-canonical compiled form of the base-dictionary trie.

The six leet pairs of Table VI (``a@ s$ o0 i1 e3 t7``) form a closed,
symmetric set of two-member classes, and a leet toggle only ever swaps
a character for the other member of its class.  So a stored word
matches an observed string under the exact/leet reading exactly when
both spell the same *canonical* string, where ``@ $ 0 1 3 7`` fold onto
``a s o i e t``.  :class:`CompiledTrie` keys every edge by the
canonical character, and each terminal node holds the stored words
whose canonical spelling is the node's path, in lexicographic order.

A fuzzy match is then one walk per reading, not a search over exact
and leet branches:

* the exact/leet reading walks the canonical spelling of the observed
  text; every word held by a terminal on that path matches it, with a
  toggle wherever the stored and observed characters differ;
* when the first observed character is :func:`capitalizable`, the
  capitalised reading walks one more path, from the lowered character.
  There the first stored character must equal the lowered one: the rule
  allows no leet toggle on a capitalised letter.

The match is the deepest terminal that holds an admissible word; among
that terminal's words, the one with the fewest toggles, then the
smallest base.  Across the two readings the longer match wins, then the
one with fewer transformations, then the smaller base: the choice of
:meth:`PrefixTrie.longest_fuzzy_match`.  With ``allow_leet=False`` only
a word spelled exactly like the observed text is admissible.

The layout is three flat columns and no per-node objects:

* ``transitions`` — one dict mapping the packed key
  ``(node << shift) | ord(canonical char)`` to ``(child << 1) | t``,
  where ``t`` flags a terminal child, so the walk learns that a node
  holds words without a second lookup;
* ``word_starts`` — node ``i`` holds
  ``words[word_starts[i]:word_starts[i + 1]]``: its words concatenated,
  each as long as the node's depth (an empty span for inner nodes);
* ``words`` — one string of every stored word.

Nodes are numbered in insertion order over the sorted word list, so the
layout is deterministic for a given word set.  Compiling is one
insertion pass over that list; attaching a published copy
(:meth:`CompiledTrie.from_arrays`) rebuilds only the transition dict.
"""

from __future__ import annotations

from array import array
from functools import partial
from itertools import accumulate, compress, count
from operator import ne
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional
from typing import Sequence, Tuple

from repro import obs
from repro.core.trie import FuzzyMatch, capitalizable
from repro.util.leet import LEET_BY_SUBSTITUTE

#: Upper bound on bits reserved for the character ordinal in a packed
#: transition key; 21 bits cover the full Unicode range (max code point
#: 0x10FFFF).  The actual shift is sized to the trie's edge alphabet at
#: compile time: an ASCII dictionary needs only 7 bits, which keeps the
#: packed keys below CPython's 30-bit "single digit" integer threshold
#: even for multi-million-node tries, so hot-path key arithmetic never
#: allocates big ints.
_MAX_CHAR_BITS = 21

#: Leet substitute -> letter, for canonicalising whole words.
_CANON = str.maketrans(LEET_BY_SUBSTITUTE)

#: The same fold by ordinal, for the per-character walk.
_FOLD: Dict[int, int] = {
    ord(sub): ord(letter) for sub, letter in LEET_BY_SUBSTITUTE.items()
}

#: Builds a :class:`FuzzyMatch` from one 4-tuple without the Python-level
#: ``NamedTuple.__new__``: the matcher returns one per dictionary segment.
_new_match: Callable[[Tuple[str, int, bool, Tuple[int, ...]]], FuzzyMatch] = (
    partial(tuple.__new__, FuzzyMatch)
)


def _toggles(word: str, observed: str) -> Tuple[int, ...]:
    """Offsets where ``word`` and the equally long ``observed`` differ."""
    return tuple(compress(count(), map(ne, word, observed)))


class CompiledTrie:
    """Immutable, flat-column trie answering the same queries as
    :class:`~repro.core.trie.PrefixTrie`.

    Build one with :meth:`PrefixTrie.compile`:

    >>> from repro.core.trie import PrefixTrie
    >>> compiled = PrefixTrie(["password", "p@ssword", "123qwe"]).compile()
    >>> "password" in compiled
    True
    >>> match = compiled.longest_fuzzy_match("P@ssw0rd123")
    >>> match.base, match.capitalized
    ('p@ssword', True)
    """

    __slots__ = (
        "_transitions", "_word_starts", "_words", "_shift", "_bound",
        "_min_length", "_size",
    )

    # ``_word_starts`` is an ``array`` when compiled in-process and a
    # zero-copy ``memoryview`` cast when attached from a shared-memory
    # segment (:meth:`from_arrays`); the matcher only indexes it.
    _transitions: Dict[int, int]
    _word_starts: Sequence[int]
    _words: str
    _shift: int
    _bound: int
    _min_length: int
    _size: int

    def __init__(self, words: Iterable[str], min_length: int) -> None:
        """Compile distinct, non-empty ``words`` (any order).

        Prefer :meth:`PrefixTrie.compile` over calling this directly.
        """
        ordered = sorted(words)
        # One translation for every word: folding keeps each length,
        # so a word's canonical spelling is its own span of ``spelled``.
        spelled = "".join(ordered).translate(_CANON)
        shift = 7 if spelled.isascii() else min(
            ord(max(spelled)).bit_length(), _MAX_CHAR_BITS
        )
        transitions: Dict[int, int] = {}
        get = transitions.get
        held: Dict[int, str] = {}
        nodes = 1
        end = 0
        for word in ordered:
            start, end = end, end + len(word)
            node = key = 0
            for ch in spelled[start:end]:
                key = (node << shift) | ord(ch)
                value = get(key)
                if value is None:
                    value = transitions[key] = nodes << 1
                    nodes += 1
                node = value >> 1
            # Flag the edge into the word's node as terminal.  Words
            # arrive sorted, so each node's words are in lexicographic
            # order.
            transitions[key] = (node << 1) | 1
            prior = held.get(node)
            held[node] = word if prior is None else prior + word
        spans = [0] * nodes
        for node, text in held.items():
            spans[node] = len(text)
        word_starts = array("q", [0])
        word_starts.extend(accumulate(spans))
        self._transitions = transitions
        self._word_starts = word_starts
        self._words = "".join([held[node] for node in sorted(held)])
        self._shift = shift
        self._bound = 1 << shift
        self._min_length = min_length
        self._size = len(ordered)
        telemetry = obs.get()
        if telemetry.enabled:
            telemetry.incr("trie.compiled")
            telemetry.observe("trie.compiled.nodes", float(nodes))

    # --- flat-column export / attach ----------------------------------

    def to_arrays(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """``(meta, sections)`` flat columns for the snapshot plane.

        Every column becomes a section the shared-memory segment
        (:mod:`repro.core.shm`) can store behind its directory: the
        transition dict as two ``int64`` columns (keys and values in
        insertion order, so ``dict(zip(...))`` rebuilds the identical
        dict), ``word_starts`` as an ``int64`` column and the words as
        one UTF-8 blob.  ``meta`` carries the scalars (``shift``,
        ``min_length``, ``size``).
        """
        transitions = self._transitions
        sections: Dict[str, Any] = {
            "transition_keys": array("q", transitions.keys()),
            "transition_values": array("q", transitions.values()),
            "word_starts": array("q", self._word_starts),
            "words": self._words,
        }
        meta = {
            "shift": self._shift,
            "min_length": self._min_length,
            "size": self._size,
        }
        return meta, sections

    @classmethod
    def from_arrays(
        cls, meta: Dict[str, Any], sections: Dict[str, Any]
    ) -> "CompiledTrie":
        """Rebuild a compiled trie from :meth:`to_arrays` columns.

        The attach half of the snapshot plane: ``word_starts`` is
        adopted by reference (typically a zero-copy ``memoryview('q')``
        into a shared segment), so no per-node Python objects are ever
        built.  The only per-entry work is ``dict(zip(...))`` over the
        stored transition columns — C-speed, and the dict it builds is
        identical (same pairs, same insertion order) to the compiled
        one, so matching behaviour is bit-for-bit the same.
        """
        self = cls.__new__(cls)
        self._transitions = dict(
            zip(sections["transition_keys"], sections["transition_values"])
        )
        self._word_starts = sections["word_starts"]
        self._words = sections["words"]
        shift = int(meta["shift"])
        self._shift = shift
        self._bound = 1 << shift
        self._min_length = int(meta["min_length"])
        self._size = int(meta["size"])
        telemetry = obs.get()
        if telemetry.enabled:
            telemetry.incr("trie.attached")
        return self

    # --- basic queries ------------------------------------------------

    @property
    def min_length(self) -> int:
        return self._min_length

    @property
    def node_count(self) -> int:
        """Number of trie nodes in the compiled layout."""
        return len(self._word_starts) - 1

    def __len__(self) -> int:
        """Number of stored words."""
        return self._size

    def _holds(self, node: int, word: str) -> bool:
        """True when ``node`` holds ``word`` (as long as its depth)."""
        starts = self._word_starts
        held = self._words
        width = len(word)
        return any(
            held[index:index + width] == word
            for index in range(starts[node], starts[node + 1], width)
        )

    def _path(self, text: str) -> Iterator[Tuple[int, int]]:
        """``(end, value)`` along the canonical path of ``text``.

        ``value`` is the transition value into the node reached after
        ``text[:end]``; the walk stops at the first missing edge.
        """
        get = self._transitions.get
        shift = self._shift
        bound = self._bound
        fold = _FOLD.get
        node = 0
        for end, ch in enumerate(text, 1):
            code = ord(ch)
            code = fold(code, code)
            if code >= bound:
                return
            value = get((node << shift) | code)
            if value is None:
                return
            yield end, value
            node = value >> 1

    def __contains__(self, word: object) -> bool:
        if not isinstance(word, str):
            return False
        for end, value in self._path(word):
            if end == len(word):
                return bool(value & 1) and self._holds(value >> 1, word)
        return False

    def iter_words(self) -> Iterator[str]:
        """Yield every stored word in lexicographic order."""
        # Node depths from the transition dict: its insertion order is
        # node-creation order, so every parent precedes its children.
        shift = self._shift
        depths = [0] * (self.node_count or 1)
        for key, value in self._transitions.items():
            depths[value >> 1] = depths[key >> shift] + 1
        starts = self._word_starts
        held = self._words
        words: List[str] = []
        for node, depth in enumerate(depths):
            for index in range(starts[node], starts[node + 1], depth or 1):
                words.append(held[index:index + depth])
        words.sort()
        return iter(words)

    # --- exact prefix matching ----------------------------------------

    def longest_exact_prefix(self, text: str) -> Optional[str]:
        """Longest stored word that is a verbatim prefix of ``text``."""
        best: Optional[str] = None
        for end, value in self._path(text):
            if value & 1 and self._holds(value >> 1, text[:end]):
                best = text[:end]
        return best

    # --- fuzzy prefix matching ----------------------------------------

    def longest_fuzzy_match(self, text: str,
                            allow_capitalization: bool = True,
                            allow_leet: bool = True,
                            start: int = 0) -> Optional[FuzzyMatch]:
        """The preferred match: longest, then fewest transformations,
        then lexicographically smallest base — bit-for-bit the same
        result as :meth:`PrefixTrie.longest_fuzzy_match` on
        ``text[start:]``.

        ``start`` lets the parser match mid-password without slicing a
        fresh remainder string per position.  This is the scoring hot
        path: most positions of a password start no stored word, so
        both root edges are looked up before anything else.
        """
        if start >= len(text):
            return None
        get = self._transitions.get
        bound = self._bound
        first = text[start]
        code = ord(first)
        code = _FOLD.get(code, code)
        value = get(code) if code < bound else None
        lowered: Optional[str] = None
        capital = None
        if allow_capitalization and first.isupper() and capitalizable(first):
            lowered = first.lower()
            code = ord(lowered)
            code = _FOLD.get(code, code)
            if code < bound:
                capital = get(code)
        best = None
        if value is not None:
            best = self._descend(value, text, start, None, allow_leet)
        if capital is not None:
            other = self._descend(capital, text, start, lowered, allow_leet)
            if other is not None and (
                best is None
                or other.length > best.length
                or (other.length == best.length
                    and (other.transformations, other.base)
                    < (best.transformations, best.base))
            ):
                best = other
        return best

    def _descend(self, value: int, text: str, start: int,
                 lowered: Optional[str],
                 allow_leet: bool) -> Optional[FuzzyMatch]:
        """The best match of one reading, entered through root edge
        ``value``; ``lowered`` is the capitalised reading's first
        stored character (``None`` for the exact/leet reading)."""
        get = self._transitions.get
        shift = self._shift
        bound = self._bound
        fold = _FOLD.get
        node = value >> 1
        end = start + 1
        terminals = [(node, end)] if value & 1 else []
        for ch in text[end:]:
            code = ord(ch)
            code = fold(code, code)
            if code >= bound:
                break
            value = get((node << shift) | code)
            if value is None:
                break
            node = value >> 1
            end += 1
            if value & 1:
                terminals.append((node, end))
        starts = self._word_starts
        held = self._words
        capitalized = lowered is not None
        for node, end in reversed(terminals):
            depth = end - start
            observed = (
                text[start:end] if lowered is None
                else lowered + text[start + 1:end]
            )
            best = None
            fewest: Tuple[int, ...] = ()
            for index in range(starts[node], starts[node + 1], depth):
                word = held[index:index + depth]
                if word == observed:
                    return _new_match((word, depth, capitalized, ()))
                if not allow_leet or (capitalized and word[0] != lowered):
                    continue
                toggles = _toggles(word, observed)
                if best is None or len(toggles) < len(fewest):
                    best, fewest = word, toggles
            if best is not None:
                return _new_match((best, depth, capitalized, fewest))
        return None
