"""Prefix trie over the base dictionary, with fuzzy longest-prefix match.

fuzzyPSM lower-cases every password from the base dictionary ``B``,
drops entries shorter than three characters and inserts the rest into a
trie (paper Sec. IV-C).  Training passwords are then parsed against the
trie by *longest prefix match*, where a password character may match a
stored character either

* exactly,
* through **capitalization** of the first character of the segment
  (``P`` matches stored ``p`` at segment offset 0), or
* through one of the six **leet** toggles of Table VI, applied
  per-character in either direction (``0`` matches stored ``o``;
  ``o`` matches stored ``0``).

The per-character, bidirectional toggle semantics reproduce the worked
derivation of ``p@ssw0rd1`` in the paper (Fig. 11), where every stored
character that belongs to a leet pair contributes one Yes/No factor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Optional
from typing import Set, Tuple

from repro.util.leet import LEET_BY_LETTER, LEET_BY_SUBSTITUTE

if TYPE_CHECKING:  # pragma: no cover - the index imports this module
    from repro.core.word_index import WordIndex

#: Map from an *observed* character to the (rule-relevant) stored
#: character it may have been toggled from, e.g. ``"0" -> "o"`` and
#: ``"o" -> "0"``.  Both directions exist because base passwords may
#: themselves contain substitute characters (``p@ssword`` in Table IV).
_TOGGLE: Dict[str, str] = {}
_TOGGLE.update(LEET_BY_LETTER)        # letter observed -> substitute stored
_TOGGLE.update(LEET_BY_SUBSTITUTE)    # substitute observed -> letter stored


def toggle_partner(ch: str) -> Optional[str]:
    """The other side of ``ch``'s leet pair, or ``None``.

    >>> toggle_partner("o")
    '0'
    >>> toggle_partner("0")
    'o'
    >>> toggle_partner("x") is None
    True
    """
    return _TOGGLE.get(ch)


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


class FuzzyMatch(NamedTuple):
    """One way a password prefix matches a stored base password.

    Attributes:
        base: the stored (dictionary) form that was matched.
        length: number of password characters consumed (== ``len(base)``).
        capitalized: True when the first character matched through the
            capitalization rule.
        toggled_offsets: offsets (into ``base``) where a leet toggle
            fired, i.e. the observed character is the leet partner of
            the stored character.
        transformations: total number of transformation operations.
    """

    base: str
    length: int
    capitalized: bool
    toggled_offsets: Tuple[int, ...]

    @property
    def transformations(self) -> int:
        return int(self.capitalized) + len(self.toggled_offsets)


class _Node:
    """A trie node; ``terminal`` marks the end of a stored word."""

    __slots__ = ("children", "terminal")

    def __init__(self) -> None:
        self.children: Dict[str, _Node] = {}
        self.terminal = False


def _add_path(root: _Node, word: str) -> None:
    """Add the nodes spelling ``word`` below ``root``."""
    node = root
    for ch in word:
        node = node.children.setdefault(ch, _Node())
    node.terminal = True


class PrefixTrie:
    """Stores base-dictionary words and answers fuzzy prefix queries.

    The trie keeps its words as a list plus a membership set, so
    inserting, :meth:`iter_words`, ``in`` and :meth:`compile` need no
    nodes.  The pointer nodes are built on the first pointer query
    (:meth:`longest_exact_prefix`, :meth:`fuzzy_matches`,
    :meth:`longest_fuzzy_match`), and later inserts keep them in step.
    Parsing uses the compiled :class:`~repro.core.word_index.WordIndex`,
    so a meter that is trained, loaded or served never builds them;
    the pointer walk is the reference that index is tested against.

    >>> trie = PrefixTrie(["password", "p@ssword", "123qwe"])
    >>> "password" in trie
    True
    >>> match = trie.longest_fuzzy_match("P@ssw0rd123")
    >>> match.base, match.capitalized
    ('p@ssword', True)
    """

    def __init__(self, words: Optional[List[str]] = None,
                 min_length: int = 3) -> None:
        if min_length < 1:
            raise ValueError("min_length must be positive")
        # Built by :meth:`_nodes` on the first pointer query.
        self._root: Optional[_Node] = None
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
        if self._root is not None:
            _add_path(self._root, word)
        return True

    def __contains__(self, word: object) -> bool:
        return isinstance(word, str) and word in self._members

    def _nodes(self) -> _Node:
        """The root of the pointer nodes, built on first use."""
        root = self._root
        if root is None:
            root = _Node()
            for word in self._words:
                _add_path(root, word)
            self._root = root
        return root

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
        parser's hot path uses.  It is built from the word list, not
        from the nodes.  It is a snapshot: words inserted afterwards do
        not appear in it.

        Build cost lands in the ``trie.compile.seconds`` telemetry
        histogram (one observation per snapshot), so a profile can
        separate matcher build time from parse time.
        """
        from repro import obs
        from repro.core.word_index import WordIndex

        with obs.get().timer("trie.compile.seconds"):
            return WordIndex(self.iter_words(), self._min_length)

    # --- exact prefix matching ---------------------------------------

    def longest_exact_prefix(self, text: str) -> Optional[str]:
        """Longest stored word that is a verbatim prefix of ``text``."""
        node = self._nodes()
        best: Optional[str] = None
        for i, ch in enumerate(text):
            node = node.children.get(ch)
            if node is None:
                break
            if node.terminal:
                best = text[: i + 1]
        return best

    # --- fuzzy prefix matching ----------------------------------------

    def fuzzy_matches(self, text: str, allow_capitalization: bool = True,
                      allow_leet: bool = True) -> List[FuzzyMatch]:
        """All stored words matching a prefix of ``text`` under the rules.

        The search explores every per-character alternative (exact,
        capitalization at offset 0, leet toggle), so all candidate
        matches are found; branching is bounded by 2 per character.
        """
        matches: List[FuzzyMatch] = []
        # Depth-first over (node, offset, base-so-far, cap, toggles).
        stack: List[Tuple[_Node, int, str, bool, Tuple[int, ...]]] = [
            (self._nodes(), 0, "", False, ())
        ]
        while stack:
            node, offset, base, capitalized, toggles = stack.pop()
            if node.terminal:
                matches.append(
                    FuzzyMatch(base, offset, capitalized, toggles)
                )
            if offset >= len(text):
                continue
            observed = text[offset]
            # Exact character match.
            child = node.children.get(observed)
            if child is not None:
                stack.append(
                    (child, offset + 1, base + observed, capitalized, toggles)
                )
            # Capitalization of the first character of the segment.
            if allow_capitalization and offset == 0 \
                    and capitalizable(observed):
                lowered = observed.lower()
                child = node.children.get(lowered)
                if child is not None:
                    stack.append(
                        (child, offset + 1, base + lowered, True, toggles)
                    )
            # Leet toggle: observed char is the partner of the stored one.
            if allow_leet:
                partner = toggle_partner(observed)
                if partner is not None:
                    child = node.children.get(partner)
                    if child is not None:
                        stack.append(
                            (
                                child,
                                offset + 1,
                                base + partner,
                                capitalized,
                                toggles + (offset,),
                            )
                        )
        return matches

    def longest_fuzzy_match(self, text: str,
                            allow_capitalization: bool = True,
                            allow_leet: bool = True,
                            start: int = 0) -> Optional[FuzzyMatch]:
        """The preferred match on ``text[start:]``: longest, then fewest
        transformations.

        Ties after both criteria are broken lexicographically on the
        base word so that parsing is fully deterministic.  This search
        is the reference :meth:`WordIndex.match` is tested against.
        """
        matches = self.fuzzy_matches(
            text[start:] if start else text,
            allow_capitalization=allow_capitalization,
            allow_leet=allow_leet,
        )
        if not matches:
            return None
        return min(
            matches, key=lambda m: (-m.length, m.transformations, m.base)
        )
