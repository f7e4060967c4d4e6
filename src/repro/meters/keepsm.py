"""KeePSM — the KeePass 2.x password quality estimator (Reichl, 2015).

Reimplemented from the published description
(`keepass.info/help/kb/pw_quality_est.html`): the estimator searches
the password for *patterns* — popular passwords (from a ranked list),
repetitions of earlier substrings, character sequences with constant
difference, and plain characters — and computes the quality as the
minimum total cost over all pattern covers (dynamic programming),
where each pattern's cost in bits reflects how easily an attacker
reproduces it:

* plain character: ``log2(|character class|)``;
* sequence of constant difference: first character's cost plus
  ``log2(length)`` for the extension;
* repetition of an earlier block: ``log2(start positions) + log2(length)``;
* ranked dictionary entry: ``log2(rank) + 1`` (cheaper for popular
  passwords), with one extra bit when matched case-insensitively.

This mirrors KeePass's min-cost static-encoder design; constants are
from the published notes, not from the (closed) C# source.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional

from repro.meters.base import Meter, entropy_to_probability
from repro.meters.registry import TrainContext, register_meter

#: Character-class sizes used for plain-character costs (KeePass uses
#: the same class partition: lower, upper, digit, special, high-ANSI).
_CLASS_SIZES = {"lower": 26, "upper": 26, "digit": 10, "special": 33}


def _build_keepsm(cls: type, context: TrainContext) -> "KeePSMMeter":
    """Registry builder: provision with the stock ranked dictionary."""
    return cls(context.dictionary or None)


def _char_cost(ch: str) -> float:
    if ch.islower():
        size = _CLASS_SIZES["lower"]
    elif ch.isupper():
        size = _CLASS_SIZES["upper"]
    elif ch.isdigit():
        size = _CLASS_SIZES["digit"]
    else:
        size = _CLASS_SIZES["special"]
    return math.log2(size)


@register_meter(
    "keepsm",
    summary="KeePass 2.x min-cost pattern-cover entropy estimator",
    builder=_build_keepsm,
)
class KeePSMMeter(Meter):
    """Pattern-aware min-cost entropy estimator.

    Args:
        ranked_dictionary: ``word -> 1-based rank`` of popular
            passwords/words; lower rank = cheaper pattern.  Accepts a
            plain iterable too (order defines rank).
        min_pattern_length: shortest repetition/sequence/dictionary
            pattern considered (default 3, as short patterns are noise).

    >>> meter = KeePSMMeter(["password", "123456"])
    >>> meter.entropy("password") < meter.entropy("p4zzw0rt")
    True
    >>> meter.entropy("aaaaaaaa") < meter.entropy("axqzpmvu")
    True
    """

    name = "KeePSM"

    def __init__(self,
                 ranked_dictionary: Optional[Iterable[str]] = None,
                 min_pattern_length: int = 3) -> None:
        if min_pattern_length < 2:
            raise ValueError("min_pattern_length must be >= 2")
        self._min_pattern_length = min_pattern_length
        self._ranks: Dict[str, int] = {}
        if ranked_dictionary is not None:
            if isinstance(ranked_dictionary, Mapping):
                items = ranked_dictionary.items()
            else:
                items = (
                    (word, rank)
                    for rank, word in enumerate(ranked_dictionary, start=1)
                )
            for word, rank in items:
                word = word.lower()
                if word not in self._ranks or rank < self._ranks[word]:
                    self._ranks[word] = rank

    # --- public API -------------------------------------------------

    def probability(self, password: str) -> float:
        return entropy_to_probability(self.entropy(password))

    def probability_many(self, passwords: Iterable[str]) -> List[float]:
        """Batch scoring with a distinct-password memo.

        The min-cost cover is a pure (and comparatively expensive,
        O(n^2) dynamic program) function of the password, so each
        distinct password runs the DP once and repeats are dict
        lookups.  Values are exactly the per-call ones.
        """
        entropy = self.entropy
        convert = entropy_to_probability
        memo: Dict[str, float] = {}
        out: List[float] = []
        for password in passwords:
            probability = memo.get(password)
            if probability is None:
                probability = convert(entropy(password))
                memo[password] = probability
            out.append(probability)
        return out

    def entropy(self, password: str) -> float:
        """Minimum pattern-cover cost in bits (0 for the empty string)."""
        if not password:
            return 0.0
        n = len(password)
        # best[i] = minimal cost of covering password[:i].
        best = [math.inf] * (n + 1)
        best[0] = 0.0
        for start in range(n):
            if best[start] is math.inf:
                continue
            # Plain character.
            plain = best[start] + _char_cost(password[start])
            if plain < best[start + 1]:
                best[start + 1] = plain
            for end in range(start + self._min_pattern_length, n + 1):
                piece = password[start:end]
                cost = self._pattern_cost(password, start, piece)
                if cost is not None and best[start] + cost < best[end]:
                    best[end] = best[start] + cost
        return best[n]

    # --- pattern costs ------------------------------------------------

    def _pattern_cost(self, password: str, start: int,
                      piece: str) -> Optional[float]:
        costs = []
        dictionary = self._dictionary_cost(piece)
        if dictionary is not None:
            costs.append(dictionary)
        repetition = self._repetition_cost(password, start, piece)
        if repetition is not None:
            costs.append(repetition)
        sequence = self._sequence_cost(piece)
        if sequence is not None:
            costs.append(sequence)
        return min(costs) if costs else None

    def _dictionary_cost(self, piece: str) -> Optional[float]:
        rank = self._ranks.get(piece)
        if rank is not None:
            return math.log2(rank) + 1.0
        rank = self._ranks.get(piece.lower())
        if rank is not None:
            return math.log2(rank) + 2.0  # +1 bit for case variation
        return None

    def _repetition_cost(self, password: str, start: int,
                         piece: str) -> Optional[float]:
        """Cost when ``piece`` already occurred earlier in the password."""
        if start == 0:
            return None
        if piece not in password[:start + len(piece) - 1]:
            return None
        # Encode: where the earlier copy starts + how long it is.
        return math.log2(max(start, 2)) + math.log2(len(piece))

    def _sequence_cost(self, piece: str) -> Optional[float]:
        """Cost for runs like ``abcd``, ``4321`` or ``aaaa``."""
        difference = ord(piece[1]) - ord(piece[0])
        if abs(difference) > 1:
            return None
        for previous, current in zip(piece, piece[1:]):
            if ord(current) - ord(previous) != difference:
                return None
        return _char_cost(piece[0]) + math.log2(len(piece))
