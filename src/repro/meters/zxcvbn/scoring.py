"""zxcvbn entropy scoring and minimum-entropy match-sequence search.

Per-match entropies follow the 2012 algorithm; the password entropy is
the minimum, over non-overlapping match covers, of the sum of match
entropies, with gaps charged at brute-force cost (``log2(charspace)``
per character, charspace derived from the character classes present in
the password).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.meters.zxcvbn.matching import Match

#: Character-class cardinalities for brute-force charspace.
_CLASS_CARDINALITIES = {"lower": 26, "upper": 26, "digits": 10, "symbols": 33}


def binom(n: int, k: int) -> int:
    """Binomial coefficient (math.comb shim kept explicit for clarity)."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def bruteforce_charspace(password: str) -> int:
    """Sum of cardinalities of character classes present.

    >>> bruteforce_charspace("abc")
    26
    >>> bruteforce_charspace("aB1!")
    95
    """
    space = 0
    if any(ch.islower() for ch in password):
        space += _CLASS_CARDINALITIES["lower"]
    if any(ch.isupper() for ch in password):
        space += _CLASS_CARDINALITIES["upper"]
    if any(ch.isdigit() for ch in password):
        space += _CLASS_CARDINALITIES["digits"]
    if any(not ch.isalnum() for ch in password):
        space += _CLASS_CARDINALITIES["symbols"]
    return max(space, 1)


# --- per-match entropy -----------------------------------------------------


def uppercase_entropy(token: str) -> float:
    """Extra bits for capitalization variants of a dictionary word."""
    if token.islower() or not any(ch.isalpha() for ch in token):
        return 0.0
    # Common patterns cost one bit: Firstcap, lastcap, ALLCAPS.
    if (
        token[:1].isupper() and token[1:].islower()
        or token[:-1].islower() and token[-1:].isupper()
        or token.isupper()
    ):
        return 1.0
    uppers = sum(1 for ch in token if ch.isupper())
    lowers = sum(1 for ch in token if ch.islower())
    possibilities = sum(
        binom(uppers + lowers, i) for i in range(0, min(uppers, lowers) + 1)
    )
    return math.log2(max(possibilities, 2))


def l33t_entropy(match: Match) -> float:
    """Extra bits for the l33t substitutions used by a match."""
    if not match.l33t:
        return 0.0
    possibilities = 0
    token = match.token.lower()
    for substitute, letter in match.substitutions.items():
        subbed = token.count(substitute)
        unsubbed = token.count(letter)
        possibilities += sum(
            binom(subbed + unsubbed, i)
            for i in range(1, min(subbed, unsubbed) + 1)
        ) or subbed  # all occurrences substituted: still >= 1 variant
    return max(math.log2(possibilities) if possibilities else 0.0, 1.0)


def dictionary_entropy(match: Match) -> float:
    assert match.rank is not None
    entropy = math.log2(match.rank)
    entropy += uppercase_entropy(match.token)
    entropy += l33t_entropy(match)
    if match.reversed:
        entropy += 1.0
    return entropy


def spatial_entropy(match: Match, starting_positions: float = 47.0,
                    average_degree: float = 4.6) -> float:
    """Keyboard-walk entropy from length, turns and shifts."""
    if match.graph == "keypad":
        starting_positions, average_degree = 15.0, 5.1
    length = match.length
    turns = max(match.turns, 1)
    possibilities = 0.0
    for i in range(2, length + 1):
        for j in range(1, min(turns, i - 1) + 1):
            possibilities += (
                binom(i - 1, j - 1) * starting_positions * average_degree ** j
            )
    entropy = math.log2(max(possibilities, 2))
    if match.shifted_count:
        shifted = match.shifted_count
        unshifted = length - shifted
        if unshifted == 0:
            entropy += 1.0
        else:
            variants = sum(
                binom(shifted + unshifted, i)
                for i in range(1, min(shifted, unshifted) + 1)
            )
            entropy += math.log2(max(variants, 2))
    return entropy


def repeat_entropy(match: Match) -> float:
    return math.log2(bruteforce_charspace(match.token[0]) * match.length)


def sequence_entropy(match: Match) -> float:
    first = match.token[0]
    if first in ("a", "1"):
        base = 1.0
    elif first.isdigit():
        base = math.log2(10)
    elif first.islower():
        base = math.log2(26)
    else:
        base = math.log2(26) + 1.0
    if not match.ascending:
        base += 1.0
    return base + math.log2(match.length)


def date_entropy(match: Match) -> float:
    assert match.year is not None
    if 1900 <= match.year <= 2029:
        year_space = 130
    else:
        year_space = 10000
    entropy = math.log2(31 * 12 * year_space)
    if match.separator:
        entropy += 2.0
    return entropy


def match_entropy(match: Match) -> float:
    """Dispatch to the pattern-specific entropy formula (cached)."""
    if match.entropy is not None:
        return match.entropy
    if match.pattern == "dictionary":
        entropy = dictionary_entropy(match)
    elif match.pattern == "spatial":
        entropy = spatial_entropy(match)
    elif match.pattern == "repeat":
        entropy = repeat_entropy(match)
    elif match.pattern == "sequence":
        entropy = sequence_entropy(match)
    elif match.pattern == "date":
        entropy = date_entropy(match)
    else:  # pragma: no cover - unknown patterns never reach scoring
        raise ValueError(f"unknown pattern {match.pattern!r}")
    match.entropy = entropy
    return entropy


# --- minimum entropy cover ----------------------------------------------------


@dataclass
class MatchSequence:
    """Result of the DP: total entropy and the chosen cover."""

    password: str
    entropy: float
    sequence: List[Match]


def minimum_entropy_match_sequence(password: str,
                                   matches: Sequence[Match]) -> MatchSequence:
    """The 2012 zxcvbn DP over match end positions.

    ``up_to[k]`` is the minimal entropy covering ``password[:k+1]``;
    each position can be covered by one brute-force character or by any
    match ending at ``k``.  Backtracking recovers the cover, inserting
    brute-force filler matches for the gaps.
    """
    n = len(password)
    if n == 0:
        return MatchSequence(password, 0.0, [])
    bruteforce_bits = math.log2(bruteforce_charspace(password))
    up_to = [0.0] * n
    backpointers: List[Optional[Match]] = [None] * n
    for k in range(n):
        up_to[k] = (up_to[k - 1] if k > 0 else 0.0) + bruteforce_bits
        backpointers[k] = None
        for match in matches:
            if match.j != k:
                continue
            candidate = (
                (up_to[match.i - 1] if match.i > 0 else 0.0)
                + match_entropy(match)
            )
            if candidate < up_to[k]:
                up_to[k] = candidate
                backpointers[k] = match

    # Backtrack.
    sequence: List[Match] = []
    k = n - 1
    while k >= 0:
        match = backpointers[k]
        if match is not None:
            sequence.append(match)
            k = match.i - 1
        else:
            k -= 1
    sequence.reverse()

    # Insert brute-force fillers for uncovered gaps.
    full: List[Match] = []
    cursor = 0
    for match in sequence:
        if match.i > cursor:
            full.append(_bruteforce_match(password, cursor, match.i - 1,
                                          bruteforce_bits))
        full.append(match)
        cursor = match.j + 1
    if cursor < n:
        full.append(_bruteforce_match(password, cursor, n - 1,
                                      bruteforce_bits))
    return MatchSequence(password, up_to[n - 1], full)


def _bruteforce_match(password: str, i: int, j: int,
                      bits_per_char: float) -> Match:
    match = Match(pattern="bruteforce", i=i, j=j, token=password[i:j + 1])
    match.entropy = bits_per_char * (j - i + 1)
    return match
