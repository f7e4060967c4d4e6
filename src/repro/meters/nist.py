"""The NIST SP-800-63 entropy meter (Burr et al., 2013; paper Sec. I).

The guideline's ad-hoc rules for user-chosen passwords:

* the first character contributes 4 bits;
* characters 2-8 contribute 2 bits each;
* characters 9-20 contribute 1.5 bits each;
* characters beyond 20 contribute 1 bit each;
* a 6-bit bonus for a composition rule requiring both upper-case and
  non-alphabetic characters (granted when the password contains both);
* a bonus of up to 6 bits for passing an extensive dictionary check
  (granted in full below 20 characters, zero at 20 and beyond — the
  guideline lets the bonus decline with length).

Most high-profile industry meters "perfectly capture the spirit" of
these rules (paper Sec. I), which is why NIST is the rule-based
baseline of the evaluation.
"""

from __future__ import annotations

from typing import Container, Dict, FrozenSet, Iterable, List, Optional

from repro.meters.base import Meter, entropy_to_probability
from repro.meters.registry import TrainContext, register_meter


def nist_entropy(password: str,
                 dictionary: Optional[Container[str]] = None,
                 composition_bonus: bool = True) -> float:
    """NIST SP-800-63 entropy estimate in bits.

    >>> nist_entropy("password") > nist_entropy("pass")
    True
    >>> nist_entropy("") == 0.0
    True
    """
    if not password:
        return 0.0
    bits = 4.0  # first character
    length = len(password)
    if length > 1:
        bits += 2.0 * (min(length, 8) - 1)
    if length > 8:
        bits += 1.5 * (min(length, 20) - 8)
    if length > 20:
        bits += 1.0 * (length - 20)
    if composition_bonus:
        has_upper = any(ch.isupper() for ch in password)
        has_non_alpha = any(not ch.isalpha() for ch in password)
        if has_upper and has_non_alpha:
            bits += 6.0
    if dictionary is not None and length < 20:
        if password.lower() not in dictionary:
            bits += 6.0
    return bits


def _build_nist(cls: type, context: TrainContext) -> "NISTMeter":
    """Registry builder: provision the dictionary-check word list."""
    return cls(dictionary=context.dictionary or None)


@register_meter(
    "nist",
    summary="NIST SP-800-63 rule-based entropy meter",
    builder=_build_nist,
)
class NISTMeter(Meter):
    """SP-800-63 entropy wrapped in the common meter interface.

    Args:
        dictionary: passwords/words for the dictionary-check bonus
            (lower-cased membership test).  ``None`` disables the bonus.
        composition_bonus: model the upper+non-alphabetic bonus.

    >>> meter = NISTMeter(dictionary={"password"})
    >>> meter.entropy("password") < meter.entropy("zzzzzzzz")
    True
    """

    name = "NIST"

    def __init__(self, dictionary: Optional[Iterable[str]] = None,
                 composition_bonus: bool = True) -> None:
        self._dictionary: Optional[FrozenSet[str]] = (
            frozenset(word.lower() for word in dictionary)
            if dictionary is not None
            else None
        )
        self._composition_bonus = composition_bonus

    def probability(self, password: str) -> float:
        return entropy_to_probability(self.entropy(password))

    def probability_many(self, passwords: Iterable[str]) -> List[float]:
        """Batch scoring with a distinct-password memo.

        NIST entropy is a pure function of the password, so each
        distinct password is computed once and repeats are dict
        lookups; attribute lookups are hoisted out of the loop.  Values
        are exactly the per-call ones (same call chain per distinct
        password), keeping the batch path never slower than the loop
        on the repetitive streams the evaluation scores.
        """
        entropy = nist_entropy
        convert = entropy_to_probability
        dictionary = self._dictionary
        composition_bonus = self._composition_bonus
        memo: Dict[str, float] = {}
        out: List[float] = []
        for password in passwords:
            probability = memo.get(password)
            if probability is None:
                probability = convert(entropy(
                    password,
                    dictionary=dictionary,
                    composition_bonus=composition_bonus,
                ))
                memo[password] = probability
            out.append(probability)
        return out

    def entropy(self, password: str) -> float:
        return nist_entropy(
            password,
            dictionary=self._dictionary,
            composition_bonus=self._composition_bonus,
        )
