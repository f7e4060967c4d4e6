"""Cracking curves and guess-number scatter data (paper Fig. 10).

Probabilistic meters are "essentially password cracking tools" (paper
footnote 6).  This module turns a guess stream into the two standard
evaluation artefacts:

* a **cracking curve** — fraction of the (weighted) test set recovered
  as a function of the number of guesses tried;
* a **guess-number scatter** — per test password, the ideal meter's
  rank against a model's guess number (each point of Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.datasets.corpus import PasswordCorpus
from repro.meters.base import Meter
from repro.metrics.guessnumber import MonteCarloEstimator


@dataclass(frozen=True)
class CrackPoint:
    """One (guesses tried, fraction cracked) point."""

    guesses: int
    cracked_fraction: float


def cracking_curve(guesses: Iterator[Tuple[str, float]],
                   test_corpus: PasswordCorpus,
                   checkpoints: Sequence[int]) -> List[CrackPoint]:
    """Fraction of test entries (with multiplicity) cracked per horizon.

    ``guesses`` is any descending guess stream — the attack engine's
    :class:`~repro.attacks.engine.GuessStream` (use a
    :class:`~repro.attacks.engine.Beam` for deep horizons), a baseline
    meter's ``iter_guesses()``, or a corpus head.  Duplicate guesses in
    the stream count once, as in a real session.  If the stream ends
    early, later checkpoints repeat the final value.  For horizons
    beyond what enumeration can materialize, extend the curve with
    :meth:`repro.attacks.masks.MaskSet.coverage_curve`.
    """
    if not checkpoints:
        raise ValueError("need at least one checkpoint")
    ordered = sorted(checkpoints)
    if ordered[0] < 1:
        raise ValueError("checkpoints must be positive")
    total = test_corpus.total
    if total == 0:
        raise ValueError("empty test corpus")
    cracked = 0
    rank = 0
    seen = set()
    points: List[CrackPoint] = []
    remaining = list(ordered)
    for guess, _ in guesses:
        if guess in seen:
            continue
        seen.add(guess)
        rank += 1
        cracked += test_corpus.count(guess)
        while remaining and rank == remaining[0]:
            points.append(CrackPoint(remaining.pop(0), cracked / total))
        if not remaining:
            break
    for checkpoint in remaining:
        points.append(CrackPoint(checkpoint, cracked / total))
    return points


@dataclass(frozen=True)
class ScatterPoint:
    """One password's (ideal rank, model guess number) pair (Fig. 10)."""

    password: str
    ideal_rank: int
    model_guess_number: float

    @property
    def log_error(self) -> float:
        """|log10(model) - log10(ideal)| — distance from the diagonal."""
        import math
        if (
            not math.isfinite(self.model_guess_number)
            or self.model_guess_number <= 0
        ):
            return math.inf
        return abs(
            math.log10(self.model_guess_number)
            - math.log10(self.ideal_rank)
        )


def guess_number_scatter(estimator: MonteCarloEstimator, meter: Meter,
                         test_corpus: PasswordCorpus,
                         max_rank: Optional[int] = None
                         ) -> List[ScatterPoint]:
    """Fig.-10 scatter data: ideal rank vs model guess number.

    Args:
        estimator: a :class:`~repro.metrics.guessnumber.MonteCarloEstimator`
            built from ``meter``.
        meter: the probabilistic meter being assessed.
        test_corpus: supplies the ideal ranking (by popularity).
        max_rank: keep only the top-``max_rank`` ideal passwords.
    """
    ranked = test_corpus.most_common(max_rank)
    # One batched probability pass (fuzzyPSM answers it through its
    # score memo), then map each score to a guess number.
    probabilities = meter.probability_many(
        password for password, _ in ranked
    )
    points: List[ScatterPoint] = []
    for rank, ((password, _), probability) in enumerate(
        zip(ranked, probabilities), start=1
    ):
        points.append(
            ScatterPoint(
                password=password,
                ideal_rank=rank,
                model_guess_number=estimator.guess_number(probability),
            )
        )
    return points


def scatter_accuracy(points: Sequence[ScatterPoint]) -> float:
    """Mean log10 distance from the diagonal (lower = better meter).

    Infinite points (passwords the model cannot derive) are excluded;
    use :func:`underivable_fraction` to report them separately.
    """
    import math
    finite = [p.log_error for p in points if math.isfinite(p.log_error)]
    if not finite:
        raise ValueError("no finite scatter points")
    return sum(finite) / len(finite)


def underivable_fraction(points: Sequence[ScatterPoint]) -> float:
    """Fraction of test passwords the model assigns probability 0."""
    import math
    if not points:
        raise ValueError("no scatter points")
    infinite = sum(
        1 for p in points if not math.isfinite(p.model_guess_number)
    )
    return infinite / len(points)
