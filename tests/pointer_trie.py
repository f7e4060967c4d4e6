"""The pointer trie: the reference fuzzy longest-prefix search.

Production parsing probes :class:`~repro.core.word_index.WordIndex`
(:meth:`PrefixTrie.compile`).  :class:`PointerTrie` is a
:class:`~repro.core.trie.PrefixTrie` that also spells its words as a
tree of nodes and walks it the way the paper describes the match
(Sec. IV-C): every character matches a stored one exactly, through
capitalization at segment offset 0, or through a leet toggle of
Table VI in either direction.  The walk enumerates every match, so its
choice (longest, then fewest transformations, then the smallest base)
is the reference the index is tested against, through
``tests/conftest.PointerMatcher``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.trie import PrefixTrie, capitalizable
from repro.util.leet import LEET_BY_LETTER, LEET_BY_SUBSTITUTE

#: Map from an *observed* character to the (rule-relevant) stored
#: character it may have been toggled from, e.g. ``"0" -> "o"`` and
#: ``"o" -> "0"``.  Both directions exist because base passwords may
#: themselves contain substitute characters (``p@ssword`` in Table IV).
_TOGGLE: Dict[str, str] = {}
_TOGGLE.update(LEET_BY_LETTER)        # letter observed -> substitute stored
_TOGGLE.update(LEET_BY_SUBSTITUTE)    # substitute observed -> letter stored


def toggle_partner(ch: str) -> Optional[str]:
    """The other side of ``ch``'s leet pair, or ``None``."""
    return _TOGGLE.get(ch)


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


class PointerTrie(PrefixTrie):
    """A :class:`PrefixTrie` with the pointer search.

    The nodes are built on the first pointer query, and later inserts
    keep them in step.
    """

    def __init__(self, words: Optional[List[str]] = None,
                 min_length: int = 3) -> None:
        # Built by :meth:`_nodes` on the first pointer query.
        self._root: Optional[_Node] = None
        super().__init__(words, min_length)

    @classmethod
    def of(cls, trie: PrefixTrie) -> "PointerTrie":
        """``trie`` itself when it is a pointer trie, else a copy."""
        if isinstance(trie, PointerTrie):
            return trie
        return cls(list(trie.iter_words()), trie.min_length)

    def insert(self, word: str) -> bool:
        if not super().insert(word):
            return False
        if self._root is not None:
            _add_path(self._root, word)
        return True

    def _nodes(self) -> _Node:
        """The root of the pointer nodes, built on first use."""
        root = self._root
        if root is None:
            root = _Node()
            for word in self._words:
                _add_path(root, word)
            self._root = root
        return root

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
