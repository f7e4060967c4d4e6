"""The Markov-based PSM (Castelluccia et al. NDSS'12; Ma et al. S&P'14).

A character-level Markov chain of configurable order assigns

``P(pw) = prod_i P(c_i | c_{i-n} .. c_{i-1}) * P(END | last context)``

with start-padding and an explicit END symbol, which makes the model a
proper distribution over variable-length strings (Ma et al.'s
end-symbol normalisation).  Three smoothing schemes are provided:

* ``NONE`` — maximum likelihood (unseen transitions give 0);
* ``LAPLACE`` — additive smoothing over the 95-character alphabet;
* ``BACKOFF`` — absolute discounting with recursive back-off to
  shorter contexts (the variant the paper uses, after Ma et al.);
* ``GOOD_TURING`` — Good-Turing adjusted counts with order-pooled
  counts-of-counts (a documented simplification of SGT; its outputs
  are not exactly normalised and it is not sampleable).

The meter is also a cracking model: :meth:`iter_guesses` enumerates
guesses in probability bands (OMEN-style), sorted within each band, so
large guess horizons need only O(depth) memory.
"""

from __future__ import annotations

import enum
import math
import random
import string
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.meters.base import ProbabilisticMeter
from repro.meters.registry import Capability, TrainContext, register_meter
from repro.util.charclasses import PRINTABLE_ASCII
from repro.util.freqdist import FrequencyDistribution

START = "\x02"
END = "\x03"

PasswordEntry = Union[str, Tuple[str, int]]


class Smoothing(enum.Enum):
    NONE = "none"
    LAPLACE = "laplace"
    BACKOFF = "backoff"
    GOOD_TURING = "good-turing"


def _build_markov(cls: type, context: TrainContext) -> "MarkovMeter":
    """Registry builder: ``markov_order``/``markov_smoothing`` options."""
    options = context.options
    smoothing = options.get("markov_smoothing", Smoothing.BACKOFF)
    if isinstance(smoothing, str):
        smoothing = Smoothing(smoothing)
    return cls.train(
        list(context.training),
        order=options.get("markov_order", 3),
        smoothing=smoothing,
    )


@register_meter(
    "markov",
    capabilities=(
        Capability.TRAINABLE,
        Capability.UPDATABLE,
        Capability.BATCH_SCORABLE,
        Capability.PERSISTABLE,
    ),
    summary="Character-level Markov model meter with smoothing",
    builder=_build_markov,
)
class MarkovMeter(ProbabilisticMeter):
    """Character-level Markov model meter.

    Args:
        order: context length (number of preceding characters);
            order 3-5 are typical (default 3).
        smoothing: see :class:`Smoothing` (default BACKOFF, as in the
            paper's implementation notes).
        laplace_alpha: additive constant for LAPLACE smoothing.
        discount: absolute discount ``D`` for BACKOFF smoothing.
        max_length: passwords longer than this measure 0 and guesses
            are never extended past it.

    >>> meter = MarkovMeter.train(["password", "password", "passage"],
    ...                           order=2, smoothing=Smoothing.NONE)
    >>> meter.probability("password") > meter.probability("passage")
    True
    """

    name = "Markov"

    def __init__(self, order: int = 3,
                 smoothing: Smoothing = Smoothing.BACKOFF,
                 laplace_alpha: float = 0.01,
                 discount: float = 0.5,
                 max_length: int = 32) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        if not 0.0 < discount < 1.0:
            raise ValueError("discount must be in (0, 1)")
        if laplace_alpha <= 0.0:
            raise ValueError("laplace_alpha must be positive")
        self.order = order
        self.smoothing = smoothing
        self.laplace_alpha = laplace_alpha
        self.discount = discount
        self.max_length = max_length
        # _transitions[k] maps a length-k context to successor counts;
        # every order 0..order is tracked so back-off is O(1) per level.
        self._transitions: List[Dict[str, FrequencyDistribution[str]]] = [
            {} for _ in range(order + 1)
        ]
        self._alphabet = sorted(PRINTABLE_ASCII)
        self._vocabulary_size = len(self._alphabet) + 1  # + END
        self._counts_of_counts: Optional[List[Dict[int, int]]] = None
        self._order_totals: Optional[List[int]] = None
        # context -> [(successor, probability)] sorted descending; used
        # by the guess enumerator, invalidated by observe().
        self._successor_cache: Dict[str, List[Tuple[str, float]]] = {}

    # --- training --------------------------------------------------------

    @classmethod
    def train(
        cls, training: Iterable[PasswordEntry], **kwargs: Any
    ) -> "MarkovMeter":
        meter = cls(**kwargs)
        for entry in training:
            if isinstance(entry, str):
                password, count = entry, 1
            else:
                password, count = entry
            if password:
                meter.update(password, count)
        return meter

    def update(self, password: str, count: int = 1) -> None:
        """Count every transition of ``password`` (all context orders).

        This is the online update phase of the unified lifecycle
        (:class:`repro.meters.registry.Updatable`).
        """
        if not password:
            raise ValueError("cannot observe an empty password")
        padded = START * self.order + password + END
        for position in range(self.order, len(padded)):
            successor = padded[position]
            for k in range(self.order + 1):
                context = padded[position - k:position]
                table = self._transitions[k].setdefault(
                    context, FrequencyDistribution()
                )
                table.add(successor, count)
        self._counts_of_counts = None  # invalidate Good-Turing cache
        self._successor_cache.clear()

    # --- probabilities -----------------------------------------------------

    def probability(self, password: str) -> float:
        if not password or len(password) > self.max_length:
            return 0.0
        padded = START * self.order + password + END
        probability = 1.0
        for position in range(self.order, len(padded)):
            context = padded[position - self.order:position]
            probability *= self.transition_probability(
                context, padded[position]
            )
            if probability == 0.0:
                return 0.0
        return probability

    def probability_many(self, passwords: Iterable[str]) -> List[float]:
        """Batch scoring with distinct-password and transition memos.

        Real measuring streams repeat both whole passwords (Zipf head)
        and ``(context, successor)`` transitions (shared prefixes), so
        one batch shares both lookups.  Both memos are sound because
        :meth:`probability` and :meth:`transition_probability` are pure
        between updates, and the factor order matches
        :meth:`probability` exactly — results are bit-identical.
        """
        memo: Dict[str, float] = {}
        transitions: Dict[Tuple[str, str], float] = {}
        transition_probability = self.transition_probability
        order = self.order
        max_length = self.max_length
        out: List[float] = []
        for password in passwords:
            value = memo.get(password)
            if value is None:
                if not password or len(password) > max_length:
                    value = 0.0
                else:
                    padded = START * order + password + END
                    value = 1.0
                    for position in range(order, len(padded)):
                        key = (
                            padded[position - order:position],
                            padded[position],
                        )
                        factor = transitions.get(key)
                        if factor is None:
                            factor = transitions[key] = (
                                transition_probability(*key)
                            )
                        value *= factor
                        if value == 0.0:
                            break
                memo[password] = value
            out.append(value)
        return out

    def transition_probability(self, context: str, successor: str) -> float:
        """``P(successor | context)`` under the configured smoothing."""
        if len(context) > self.order:
            context = context[-self.order:]
        if self.smoothing is Smoothing.NONE:
            return self._mle(context, successor)
        if self.smoothing is Smoothing.LAPLACE:
            return self._laplace(context, successor)
        if self.smoothing is Smoothing.BACKOFF:
            return self._backoff(context, successor)
        return self._good_turing(context, successor)

    def _table(self, context: str) -> Optional[FrequencyDistribution[str]]:
        return self._transitions[len(context)].get(context)

    def _mle(self, context: str, successor: str) -> float:
        table = self._table(context)
        if table is None or table.total == 0:
            return 0.0
        return table.probability(successor)

    def _laplace(self, context: str, successor: str) -> float:
        table = self._table(context)
        count = table.count(successor) if table is not None else 0
        total = table.total if table is not None else 0
        alpha = self.laplace_alpha
        return (count + alpha) / (total + alpha * self._vocabulary_size)

    def _backoff(self, context: str, successor: str) -> float:
        """Absolute discounting with back-off to shorter contexts."""
        if not context:
            # Base case: order-0 counts with a Laplace floor so every
            # alphabet character (and END) has positive probability.
            table = self._transitions[0].get("")
            count = table.count(successor) if table is not None else 0
            total = table.total if table is not None else 0
            alpha = self.laplace_alpha
            return (count + alpha) / (total + alpha * self._vocabulary_size)
        table = self._table(context)
        if table is None or table.total == 0:
            return self._backoff(context[1:], successor)
        discount = self.discount
        count = table.count(successor)
        discounted = max(count - discount, 0.0) / table.total
        backoff_weight = discount * table.support_size / table.total
        return discounted + backoff_weight * self._backoff(
            context[1:], successor
        )

    def _ensure_good_turing_cache(self) -> None:
        if self._counts_of_counts is not None:
            return
        self._counts_of_counts = []
        self._order_totals = []
        for k in range(self.order + 1):
            pooled: Dict[int, int] = {}
            total = 0
            for table in self._transitions[k].values():
                total += table.total
                for count, items in table.counts_of_counts().items():
                    pooled[count] = pooled.get(count, 0) + items
            self._counts_of_counts.append(pooled)
            self._order_totals.append(total)

    def _good_turing(self, context: str, successor: str) -> float:
        """Good-Turing adjusted counts, pooled per context order.

        Seen: ``r* = (r+1) * N_{r+1} / N_r`` (falling back to ``r`` when
        ``N_{r+1} = 0``); unseen: the order's ``N_1 / N`` mass split
        uniformly over unseen vocabulary.  Backs off to shorter
        contexts for entirely unseen contexts.
        """
        self._ensure_good_turing_cache()
        assert self._counts_of_counts is not None
        table = self._table(context)
        if table is None or table.total == 0:
            if context:
                return self._good_turing(context[1:], successor)
            return self.laplace_alpha / (
                self.laplace_alpha * self._vocabulary_size
            )
        pooled = self._counts_of_counts[len(context)]
        count = table.count(successor)
        if count > 0:
            n_r = pooled.get(count, 0)
            n_r1 = pooled.get(count + 1, 0)
            if n_r > 0 and n_r1 > 0:
                adjusted = (count + 1) * n_r1 / n_r
                # Guard against wildly non-monotone adjustments from
                # sparse counts-of-counts: keep the adjusted count
                # positive and never above the context total (a single
                # transition cannot carry more than all of its mass).
                if adjusted <= 0:
                    adjusted = float(count)
                adjusted = min(adjusted, float(table.total))
            else:
                adjusted = float(count)
            return adjusted / table.total
        unseen = self._vocabulary_size - table.support_size
        if unseen <= 0:
            return 0.0
        n_1 = pooled.get(1, 0)
        missing_mass = n_1 / table.total if table.total else 0.0
        missing_mass = min(missing_mass, 1.0)
        return missing_mass / unseen

    # --- serialisation ----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot (config + every transition table)."""
        return {
            "order": self.order,
            "smoothing": self.smoothing.value,
            "laplace_alpha": self.laplace_alpha,
            "discount": self.discount,
            "max_length": self.max_length,
            "transitions": [
                {
                    context: dict(table.items())
                    for context, table in level.items()
                }
                for level in self._transitions
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MarkovMeter":
        meter = cls(
            order=data["order"],
            smoothing=Smoothing(data["smoothing"]),
            laplace_alpha=data["laplace_alpha"],
            discount=data["discount"],
            max_length=data["max_length"],
        )
        for k, level in enumerate(data["transitions"]):
            for context, table in level.items():
                dist = meter._transitions[k].setdefault(
                    context, FrequencyDistribution()
                )
                for successor, count in table.items():
                    dist.add(successor, count)
        return meter

    # --- sampling ------------------------------------------------------------

    def sample(self, rng: random.Random) -> Tuple[str, float]:
        """Draw a password from the model (NONE/LAPLACE/BACKOFF only).

        The sampler follows the exact conditional distributions used by
        :meth:`probability`, as required for unbiased Monte-Carlo guess
        numbers.  Good-Turing outputs are not a proper distribution, so
        sampling it raises.
        """
        if self.smoothing is Smoothing.GOOD_TURING:
            raise NotImplementedError(
                "Good-Turing smoothing does not define a sampleable "
                "distribution"
            )
        if self._transitions[0].get("") is None:
            raise ValueError("cannot sample from an untrained meter")
        for _ in range(1000):  # rejection loop for the length cap
            result = self._sample_once(rng)
            if result is not None:
                return result
        raise RuntimeError("sampling failed to terminate within the cap")

    def _sample_once(self, rng: random.Random
                     ) -> Optional[Tuple[str, float]]:
        context = START * self.order
        chars: List[str] = []
        probability = 1.0
        while True:
            successor = self._sample_successor(context, rng)
            probability *= self.transition_probability(context, successor)
            if successor == END:
                password = "".join(chars)
                if not password:
                    return None  # zero-length; reject and retry
                return password, probability
            chars.append(successor)
            if len(chars) > self.max_length:
                return None
            context = (context + successor)[-self.order:]

    def _sample_successor(self, context: str, rng: random.Random) -> str:
        if self.smoothing is Smoothing.NONE:
            table = self._table(context)
            assert table is not None and table.total > 0
            return _sample_freqdist(table, rng)
        if self.smoothing is Smoothing.LAPLACE:
            table = self._table(context)
            total = table.total if table is not None else 0
            alpha_mass = self.laplace_alpha * self._vocabulary_size
            if table is None or rng.random() * (total + alpha_mass) < alpha_mass:
                choices = self._alphabet + [END]
                return choices[rng.randrange(len(choices))]
            return _sample_freqdist(table, rng)
        # BACKOFF: with probability sum(max(c - D, 0))/total take the
        # discounted MLE; otherwise recurse on the shorter context.
        if not context:
            table = self._transitions[0].get("")
            total = table.total if table is not None else 0
            alpha_mass = self.laplace_alpha * self._vocabulary_size
            if table is None or rng.random() * (total + alpha_mass) < alpha_mass:
                choices = self._alphabet + [END]
                return choices[rng.randrange(len(choices))]
            return _sample_freqdist(table, rng)
        table = self._table(context)
        if table is None or table.total == 0:
            return self._sample_successor(context[1:], rng)
        discount = self.discount
        stay_mass = sum(
            max(count - discount, 0.0) for _, count in table.items()
        )
        if rng.random() * table.total < stay_mass:
            return _sample_discounted(table, discount, rng)
        return self._sample_successor(context[1:], rng)

    # --- guess enumeration ------------------------------------------------------

    def iter_guesses(self, limit: Optional[int] = None,
                     band_ratio: float = 0.5,
                     max_bands: int = 120) -> Iterator[Tuple[str, float]]:
        """Guesses in probability bands, sorted within each band.

        Band ``k`` covers probabilities in ``[r^(k+1), r^k)`` with
        ``r = band_ratio``; a depth-first walk prunes prefixes whose
        probability already fell below the band floor.  Ordering is
        exact within a band and near-exact globally, the standard
        trade-off of Markov enumerators (OMEN).
        """
        if not 0.0 < band_ratio < 1.0:
            raise ValueError("band_ratio must be in (0, 1)")
        if self._transitions[0].get("") is None:
            return
        emitted = 0
        for band in range(max_bands):
            upper = band_ratio ** band
            lower = band_ratio ** (band + 1)
            results: List[Tuple[str, float]] = []
            self._collect_band("", START * self.order, 1.0, lower, upper,
                               results)
            results.sort(key=lambda item: (-item[1], item[0]))
            for item in results:
                yield item
                emitted += 1
                if limit is not None and emitted >= limit:
                    return

    def _sorted_successors(self, context: str) -> List[Tuple[str, float]]:
        """``(successor, probability)`` pairs, descending, cached.

        The descending order lets the band collector stop expanding a
        node as soon as one child falls below the band floor — the
        difference between minutes and seconds per enumeration.
        """
        cached = self._successor_cache.get(context)
        if cached is not None:
            return cached
        if self.smoothing is Smoothing.NONE:
            table = self._table(context)
            successors: List[str] = sorted(table) if table else []
        else:
            successors = self._alphabet + [END]
        pairs = [
            (successor, self.transition_probability(context, successor))
            for successor in successors
        ]
        pairs.sort(key=lambda item: (-item[1], item[0]))
        self._successor_cache[context] = pairs
        return pairs

    def _collect_band(self, prefix: str, context: str, probability: float,
                      lower: float, upper: float,
                      results: List[Tuple[str, float]]) -> None:
        if probability < lower or len(prefix) > self.max_length:
            return
        for successor, transition in self._sorted_successors(context):
            p = probability * transition
            if p < lower:
                break  # descending order: the rest are smaller still
            if successor == END:
                if prefix and p < upper:
                    results.append((prefix, p))
            else:
                self._collect_band(
                    prefix + successor,
                    (context + successor)[-self.order:],
                    p, lower, upper, results,
                )


def _sample_freqdist(dist: FrequencyDistribution, rng: random.Random):
    target = rng.random() * dist.total
    cumulative = 0
    item = None
    for item, count in dist.items():
        cumulative += count
        if cumulative > target:
            return item
    return item


def _sample_discounted(dist: FrequencyDistribution, discount: float,
                       rng: random.Random):
    total = sum(max(count - discount, 0.0) for _, count in dist.items())
    target = rng.random() * total
    cumulative = 0.0
    item = None
    for item, count in dist.items():
        cumulative += max(count - discount, 0.0)
        if cumulative > target:
            return item
    return item
