"""The practically ideal meter (paper Sec. II-B).

Built directly from a large sample of the target distribution: the
empirical probability ``f_pw / |DS|`` approximates the true probability
with relative standard error about ``1 / sqrt(f_pw)`` (Bonneau, S&P'12),
so for popular passwords (``f_pw >= 4``) the frequency-sorted list *is*
the benchmark meter — its order is the guess number.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from repro.meters.base import ProbabilisticMeter
from repro.meters.registry import TrainContext, register_meter
from repro.util.freqdist import FrequencyDistribution

#: Below this frequency the empirical estimate is too noisy for the
#: ideal meter to be meaningful (paper Sec. V-D).
RELIABLE_FREQUENCY = 4


def _build_ideal(cls: type, context: TrainContext) -> "IdealMeter":
    """Registry builder: the empirical distribution of the training set."""
    counts: Dict[str, int] = {}
    for password, count in context.training:
        counts[password] = counts.get(password, 0) + count
    return cls(counts)


@register_meter(
    "ideal",
    summary="Empirical-frequency benchmark meter (paper Sec. II-B)",
    builder=_build_ideal,
)
class IdealMeter(ProbabilisticMeter):
    """Empirical-frequency meter over a sampled password dataset.

    >>> ideal = IdealMeter(["123456", "123456", "password", "dragon"])
    >>> ideal.probability("123456")
    0.5
    >>> ideal.guess_number("123456")
    1
    >>> ideal.probability("unseen")
    0.0
    """

    name = "Ideal"

    def __init__(self, sample: Union[Iterable[str], Mapping[str, int]]) -> None:
        distribution: FrequencyDistribution[str] = FrequencyDistribution()
        if isinstance(sample, Mapping):
            for password, count in sample.items():
                distribution.add(password, count)
        else:
            distribution.update(sample)
        if distribution.total == 0:
            raise ValueError("the ideal meter needs a non-empty sample")
        self._distribution = distribution
        self._guess_numbers: Dict[str, int] = {
            password: rank
            for rank, (password, _) in enumerate(
                distribution.most_common(), start=1
            )
        }

    @property
    def distribution(self) -> FrequencyDistribution[str]:
        return self._distribution

    def probability(self, password: str) -> float:
        return self._distribution.probability(password)

    def probability_many(self, passwords: Iterable[str]) -> List[float]:
        """Batch scoring with the count lookup and total hoisted.

        The constructor guarantees ``total > 0``, so the division is
        exactly :meth:`FrequencyDistribution.probability` with the
        per-call attribute chasing removed — results are bit-identical
        to the base loop.
        """
        count = self._distribution.count
        total = self._distribution.total
        return [count(password) / total for password in passwords]

    def frequency(self, password: str) -> int:
        return self._distribution.count(password)

    def is_reliable(self, password: str) -> bool:
        """True when the empirical estimate has acceptable error."""
        return self._distribution.count(password) >= RELIABLE_FREQUENCY

    def guess_number(self, password: str) -> Optional[int]:
        """1-based rank in the frequency-sorted list; None if unseen."""
        return self._guess_numbers.get(password)

    def top(self, k: int) -> List[Tuple[str, int]]:
        """The ``k`` most popular passwords with their counts."""
        return self._distribution.most_common(k)

    def iter_guesses(
        self, limit: Optional[int] = None
    ) -> Iterator[Tuple[str, float]]:
        total = self._distribution.total
        for index, (password, count) in enumerate(
            self._distribution.most_common()
        ):
            if limit is not None and index >= limit:
                return
            yield password, count / total
