"""The common meter interface (paper Sec. II-B).

A password strength meter is a function ``M: pw -> [0, 1]`` where a
*higher* value means a *weaker* password.  Probabilistic-model-based
meters (fuzzyPSM, PCFG, Markov, ideal) output genuine probabilities;
rule-based meters (zxcvbn, KeePSM, NIST) output entropies which we map
through ``2 ** -entropy`` so every meter is comparable on the same
scale.  Rank-correlation evaluation only depends on orderings, so this
monotone mapping is lossless for the paper's methodology.
"""

from __future__ import annotations

import abc
import math
import random
from typing import Iterable, Iterator, List, Optional, Tuple


def entropy_to_probability(entropy_bits: float) -> float:
    """Map an entropy estimate (bits) to the meter scale ``[0, 1]``.

    >>> entropy_to_probability(0.0)
    1.0
    >>> entropy_to_probability(10.0)
    0.0009765625
    """
    if entropy_bits < 0:
        raise ValueError("entropy must be non-negative")
    return 2.0 ** -entropy_bits


def probability_to_entropy(probability: float) -> float:
    """Inverse of :func:`entropy_to_probability`; 0 maps to +inf."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    if probability == 0.0:
        return math.inf
    return -math.log2(probability)


class Meter(abc.ABC):
    """Abstract strength meter: ``probability`` is the paper's ``M(pw)``."""

    #: Short name used in result tables and plots.
    name: str = "meter"

    @abc.abstractmethod
    def probability(self, password: str) -> float:
        """Strength value in ``[0, 1]``; higher means weaker."""

    def entropy(self, password: str) -> float:
        """Equivalent strength in bits (``-log2`` of the meter value)."""
        return probability_to_entropy(self.probability(password))

    def probability_many(self, passwords: Iterable[str]) -> List[float]:
        """Batch :meth:`probability` — the bulk-scoring entry point.

        The base implementation is a plain per-password loop, so every
        meter scores in bulk by construction; meters with a cheaper
        vectorised path override this.  Overrides must stay
        bit-identical to the loop: the batch API is an
        execution-strategy change, never a semantics change.
        """
        return [self.probability(pw) for pw in passwords]

    def entropy_many(self, passwords: Iterable[str]) -> List[float]:
        """Batch :meth:`entropy`, derived from :meth:`probability_many`."""
        return [
            probability_to_entropy(probability)
            for probability in self.probability_many(passwords)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class ProbabilisticMeter(Meter):
    """A meter whose values form a (sub-)probability distribution.

    Probabilistic meters are "essentially password cracking tools"
    (paper footnote 6): they can output guesses in decreasing order of
    probability and can be sampled, enabling exact small-horizon guess
    enumeration and Monte-Carlo guess-number estimation.
    """

    def sample(self, rng: random.Random) -> Tuple[str, float]:
        """Draw ``(password, probability)`` from the model distribution."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support sampling"
        )

    def iter_guesses(self, limit: Optional[int] = None) -> Iterator[Tuple[str, float]]:
        """Yield guesses in decreasing probability order.

        Implementations may break probability ties arbitrarily but must
        be deterministic.  ``limit`` bounds the number of guesses.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support guess enumeration"
        )
