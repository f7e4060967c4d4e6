"""The base dictionary, stored for fuzzy longest-prefix matching.

fuzzyPSM lower-cases every password from the base dictionary ``B``,
drops entries shorter than three characters and stores the rest
(paper Sec. IV-C).  Training passwords are then parsed against them by
*longest prefix match*, where a password character may match a stored
character either

* exactly,
* through **capitalization** of the first character of the segment
  (``P`` matches stored ``p`` at segment offset 0), or
* through one of the six **leet** toggles of Table VI, applied
  per-character in either direction (``0`` matches stored ``o``;
  ``o`` matches stored ``0``).

The per-character, bidirectional toggle semantics reproduce the worked
derivation of ``p@ssw0rd1`` in the paper (Fig. 11), where every stored
character that belongs to a leet pair contributes one Yes/No factor.

:class:`PrefixTrie` keeps the words; :meth:`PrefixTrie.compile` freezes
them into the :class:`~repro.core.word_index.WordIndex` the parser
probes.  The pointer-trie walk that index is tested against lives with
the tests (``tests/pointer_trie.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Set

if TYPE_CHECKING:  # pragma: no cover - the index imports this module
    from repro.core.word_index import WordIndex


def capitalizable(ch: str) -> bool:
    """True when ``ch`` can be read as a capitalised first letter.

    The rule derives ``ch`` by upper-casing a stored character, so
    ``ch.lower()`` must be one code point whose upper case is ``ch``
    again.  U+0130 lower-cases to two code points and the Kelvin sign
    U+212A to a ``k`` that upper-cases to a Latin ``K``: reading either
    as capitalised would make the derivation spell another string, so
    neither takes the rule.

    >>> capitalizable("P"), capitalizable("p"), capitalizable("1")
    (True, False, False)
    >>> capitalizable(chr(0x130)), capitalizable(chr(0x212A))
    (False, False)
    """
    if not ch.isupper():
        return False
    lowered = ch.lower()
    return len(lowered) == 1 and lowered.upper() == ch


class PrefixTrie:
    """Stores the base-dictionary words for :meth:`compile`.

    The words are kept as a list plus a membership set.  Parsing
    probes the compiled :class:`~repro.core.word_index.WordIndex`.

    >>> from repro.core.word_index import canonical
    >>> trie = PrefixTrie(["password", "p@ssword", "123qwe"])
    >>> "password" in trie
    True
    >>> text = "P@ssw0rd123"
    >>> trie.compile().match(text, canonical(text), 0, True, True)
    ('p@ssword', True, (5,), False, False, True)
    """

    def __init__(self, words: Optional[List[str]] = None,
                 min_length: int = 3) -> None:
        if min_length < 1:
            raise ValueError("min_length must be positive")
        self._min_length = min_length
        self._members: Set[str] = set()
        self._words: List[str] = []
        # Whether ``_words`` is in lexicographic order; inserting in
        # sorted order (a saved model's word list) keeps it sorted.
        self._sorted = True
        if words:
            for word in words:
                self.insert(word)

    @property
    def min_length(self) -> int:
        return self._min_length

    def __len__(self) -> int:
        """Number of stored words."""
        return len(self._words)

    def insert(self, word: str) -> bool:
        """Insert a word verbatim; returns False if too short or present.

        Callers are expected to lower-case base passwords before
        insertion (see :func:`repro.core.training.build_base_trie`).
        """
        if len(word) < self._min_length or word in self._members:
            return False
        self._members.add(word)
        words = self._words
        if self._sorted and words and word < words[-1]:
            self._sorted = False
        words.append(word)
        return True

    def __contains__(self, word: object) -> bool:
        return isinstance(word, str) and word in self._members

    def iter_words(self) -> Iterator[str]:
        """Yield every stored word in lexicographic order."""
        if not self._sorted:
            self._words.sort()
            self._sorted = True
        return iter(self._words)

    def compile(self) -> "WordIndex":
        """Freeze this trie's words into a :class:`WordIndex`.

        The index answers the parser's fuzzy prefix queries with a few
        dict probes per position (no nodes, no walk) and is what the
        parser's hot path uses.  It is a snapshot: words inserted
        afterwards do not appear in it.

        Build cost lands in the ``trie.compile.seconds`` telemetry
        histogram (one observation per snapshot), so a profile can
        separate matcher build time from parse time.
        """
        from repro import obs
        from repro.core.word_index import WordIndex

        with obs.get().timer("trie.compile.seconds"):
            return WordIndex(self.iter_words(), self._min_length)
