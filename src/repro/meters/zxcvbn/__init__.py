"""Reimplementation of zxcvbn, Dropbox's password strength estimator.

Built from the published design (Wheeler, 2012 tech-blog post and the
algorithm description): a set of *matchers* finds pattern matches —
dictionary words (straight, reversed, l33t-substituted), keyboard-
spatial walks, repeats, sequences and dates — and a dynamic program
selects the non-overlapping cover of the password with **minimum total
entropy**, filling gaps with brute-force regions.  The password's
entropy is that minimum: the most charitable view an attacker who
knows all the patterns could take.

No upstream code or data files are vendored; adjacency graphs are
derived from layout definitions and the frequency lists are compact
built-ins (extendable per instance).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.meters.base import (
    Meter,
    entropy_to_probability,
    probability_to_entropy,
)
from repro.meters.registry import register_meter
from repro.meters.zxcvbn.matching import MatchCollector, Match
from repro.meters.zxcvbn.scoring import (
    MatchSequence,
    minimum_entropy_match_sequence,
)
from repro.meters.zxcvbn.frequency_lists import DEFAULT_RANKED_DICTIONARIES
from repro.meters.zxcvbn.crack_time import StrengthReport, strength_report


@register_meter(
    "zxcvbn",
    summary="zxcvbn minimum-entropy pattern-cover estimator",
)
class ZxcvbnMeter(Meter):
    """zxcvbn wrapped in the common meter interface.

    Args:
        extra_dictionaries: ``name -> ordered password/word list`` merged
            with the built-in lists (order defines rank).  The paper's
            experiments feed leaked training passwords through this.

    >>> meter = ZxcvbnMeter()
    >>> meter.entropy("password") < meter.entropy("gbwkfq7c")
    True
    >>> meter.entropy("correcthorse") < meter.entropy("c0rRecth0rs!e7")
    True
    """

    name = "Zxcvbn"

    def __init__(self, extra_dictionaries: Optional[
            Dict[str, Sequence[str]]] = None) -> None:
        ranked: Dict[str, Dict[str, int]] = {
            name: dict(table)
            for name, table in DEFAULT_RANKED_DICTIONARIES.items()
        }
        if extra_dictionaries:
            for name, words in extra_dictionaries.items():
                table = ranked.setdefault(name, {})
                for rank, word in enumerate(words, start=len(table) + 1):
                    table.setdefault(word.lower(), rank)
        self._collector = MatchCollector(ranked)

    def matches(self, password: str) -> List[Match]:
        """All pattern matches found in the password (for inspection)."""
        return self._collector.all_matches(password)

    def entropy(self, password: str) -> float:
        if not password:
            return 0.0
        result = minimum_entropy_match_sequence(
            password, self._collector.all_matches(password)
        )
        return result.entropy

    def match_sequence(self, password: str) -> MatchSequence:
        """The minimum-entropy cover (list of matches incl. bruteforce)."""
        return minimum_entropy_match_sequence(
            password, self._collector.all_matches(password)
        )

    def probability(self, password: str) -> float:
        return entropy_to_probability(self.entropy(password))

    def probability_many(self, passwords: Iterable[str]) -> List[float]:
        """Batch scoring, computing each distinct password once.

        Scoring streams repeat passwords heavily (a leaked corpus is a
        frequency distribution) and ``probability`` is a pure function
        of the password, so a per-batch memo is bit-identical to the
        base-class loop while skipping the repeated matcher work.  The
        remainder of the batch path is vectorised too: the matcher and
        dynamic program run through bound locals instead of repeated
        attribute/method dispatch per entry.
        """
        memo: Dict[str, float] = {}
        lookup = memo.get
        collect = self._collector.all_matches
        out: List[float] = []
        append = out.append
        for password in passwords:
            value = lookup(password)
            if value is None:
                if password:
                    entropy = minimum_entropy_match_sequence(
                        password, collect(password)
                    ).entropy
                else:
                    entropy = 0.0
                value = entropy_to_probability(entropy)
                memo[password] = value
            append(value)
        return out

    def entropy_many(self, passwords: Iterable[str]) -> List[float]:
        """Batch :meth:`entropy` with the same distinct-password memo.

        Bit-identical to the base-class derivation (which round-trips
        every score through ``probability_many``): the memoised value
        is the probability, converted back exactly like the base loop.
        """
        memo: Dict[str, float] = {}
        lookup = memo.get
        out: List[float] = []
        append = out.append
        for password in passwords:
            value = lookup(password)
            if value is None:
                value = probability_to_entropy(self.probability(password))
                memo[password] = value
            append(value)
        return out

    def report(self, password: str) -> StrengthReport:
        """The user-facing bundle: entropy, crack time, 0-4 score."""
        return strength_report(password, self.entropy(password))

    def score(self, password: str) -> int:
        """zxcvbn's 0-4 score (what Dropbox's signup bar shows)."""
        return self.report(password).score


__all__ = [
    "ZxcvbnMeter",
    "Match",
    "MatchCollector",
    "StrengthReport",
    "strength_report",
]
