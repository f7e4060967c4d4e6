"""Runs a Table-XI scenario end to end: data, meters, curves.

The pipeline mirrors Sec. V-C/V-D:

1. Generate (or accept) the corpora involved in a scenario.
2. **ideal case** — split the test dataset into four equal parts,
   train on part 1, measure part 4.  **real / cross** — train on the
   similar-service leak plus 1/4 of the test set, measure the rest.
3. Train all six meters on identical material (fuzzyPSM additionally
   receives the language group's base dictionary).
4. Rank the test set's unique passwords by the ideal meter and compute
   the top-k Kendall-tau (or Spearman-rho) curves of Figs. 9/13.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple,
)

if TYPE_CHECKING:  # runtime import stays local to run_crossover
    from repro.attacks.masks import CrossoverReport

from repro import obs
from repro.obs.report import build_report
from repro.datasets.corpus import PasswordCorpus
from repro.datasets.synthetic import SyntheticEcosystem
from repro.experiments.scenarios import CROSSOVER_METERS, Scenario
from repro.meters import registry
from repro.meters.base import Meter
from repro.meters.ideal import IdealMeter
from repro.meters.markov import Smoothing
from repro.meters.registry import TrainContext
from repro.meters.zxcvbn.frequency_lists import COMMON_PASSWORDS
from repro.metrics.curves import CurvePoint, correlation_curve
from repro.metrics.rank import kendall_tau


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of an experiment run (defaults = laptop-scale repro)."""

    corpus_size: int = 20_000          # entries per generated corpus
    # The base dictionary must dwarf the training corpus, as in the
    # paper (Rockyou/Tianya are the largest leaks): fuzzyPSM's edge
    # comes from base-dictionary coverage of reused passwords.
    base_corpus_size: int = 120_000
    markov_order: int = 3
    markov_smoothing: Smoothing = Smoothing.BACKOFF
    seed: int = 0
    meters: Tuple[str, ...] = (
        "fuzzyPSM", "PCFG", "Markov", "Zxcvbn", "KeePSM", "NIST",
    )
    #: Collect pipeline telemetry for the run (scoped session; the
    #: snapshot report lands on :attr:`ExperimentResult.telemetry`).
    telemetry: bool = True


@dataclass(frozen=True)
class MeterCurve:
    """One meter's top-k correlation curve."""

    meter: str
    points: Tuple[CurvePoint, ...]

    @property
    def final(self) -> float:
        return self.points[-1].value

    @property
    def mean(self) -> float:
        return sum(p.value for p in self.points) / len(self.points)


@dataclass(frozen=True)
class ExperimentResult:
    """All curves of one scenario run."""

    scenario: Scenario
    curves: Tuple[MeterCurve, ...]
    test_unique: int
    metric_name: str
    #: Telemetry report for the run (:func:`repro.obs.build_report`),
    #: or None when :attr:`ExperimentConfig.telemetry` is off.
    telemetry: Optional[Dict[str, Any]] = None

    def curve(self, meter: str) -> MeterCurve:
        for curve in self.curves:
            if curve.meter == meter:
                return curve
        raise KeyError(f"no curve for meter {meter!r}")

    def ranking(self) -> List[str]:
        """Meters ordered by mean correlation, best first."""
        return [
            curve.meter
            for curve in sorted(self.curves, key=lambda c: -c.mean)
        ]


def build_meters(base_corpus: PasswordCorpus,
                 training_corpus: PasswordCorpus,
                 config: Optional[ExperimentConfig] = None) -> List[Meter]:
    """Train the scenario's meter suite on identical material.

    The machine-learning meters (fuzzyPSM, PCFG, Markov) train on the
    full weighted training corpus; the rule-based meters receive the
    head of the training distribution as their dictionary, which is
    how a deployment would provision them.
    """
    config = config or ExperimentConfig()
    # The rule-based industry/standards meters are static: they ship
    # with stock dictionaries and are NOT retrained per service (that
    # inability to adapt is one of the paper's points).  Their registry
    # builders ignore the training corpus and take only the stock
    # dictionary; the machine-learning meters train on the full
    # weighted corpus.  One shared context serves every meter.
    context = TrainContext(
        training=tuple(training_corpus.items()),
        base_dictionary=tuple(base_corpus.unique_passwords()),
        dictionary=COMMON_PASSWORDS,
        options={
            "markov_order": config.markov_order,
            "markov_smoothing": config.markov_smoothing,
        },
    )
    telemetry = obs.get()
    meters: List[Meter] = []
    for name in config.meters:
        # One observation per trained meter: the histogram's spread is
        # the per-meter training cost mix of the scenario.
        with telemetry.timer("experiment.train.seconds"):
            meters.append(registry.build_meter(name, context))
    return meters


def evaluate_meters(meters: Sequence[Meter], test_corpus: PasswordCorpus,
                    ks: Optional[Sequence[int]] = None,
                    metric: Callable = kendall_tau,
                    metric_name: str = "kendall",
                    min_frequency: int = 1,
                    ) -> Tuple[Tuple[MeterCurve, ...], int]:
    """Top-k correlation curves of every meter against the ideal meter.

    ``min_frequency`` restricts the ranked test list to passwords with
    empirical frequency at least that value; the paper deems the ideal
    meter meaningful only for ``f_pw >= 4`` (Sec. V-D), so the headline
    comparisons use ``min_frequency=4``.
    """
    ideal = IdealMeter(test_corpus.counts())
    passwords = [
        pw
        for pw, count in test_corpus.most_common()
        if count >= min_frequency
    ]
    if len(passwords) < 2:
        raise ValueError(
            f"fewer than two test passwords with frequency >= {min_frequency}"
        )
    # Batched scoring: every meter answers Meter.probability_many —
    # vectorised overrides (fuzzyPSM's score memo, the PCFG/Markov
    # memos) serve the whole list at once, the base-class default is
    # the same per-call loop as before.
    telemetry = obs.get()
    ideal_scores = ideal.probability_many(passwords)
    curves = []
    for meter in meters:
        spec = registry.spec_for(meter)
        kind = spec.kind if spec is not None else meter.name.lower()
        # Two spans per meter: the aggregate histogram keeps the whole
        # suite's scoring-cost mix, the per-kind one names the meter.
        with telemetry.timer("experiment.score.seconds"), \
                telemetry.timer(f"experiment.score.{kind}.seconds"):
            meter_scores = meter.probability_many(passwords)
        points = correlation_curve(
            ideal_scores, meter_scores, ks=ks, metric=metric
        )
        curves.append(MeterCurve(meter.name, tuple(points)))
    return tuple(curves), len(passwords)


def prepare_scenario_data(scenario: Scenario,
                          ecosystem: SyntheticEcosystem,
                          config: Optional[ExperimentConfig] = None,
                          ) -> Tuple[PasswordCorpus, PasswordCorpus,
                                     PasswordCorpus]:
    """(base, training, testing) corpora for a scenario (Sec. V-C)."""
    config = config or ExperimentConfig()
    rng = random.Random(config.seed)
    base = ecosystem.generate(
        scenario.base_dataset, total=config.base_corpus_size,
        seed=config.seed,
    )
    test_full = ecosystem.generate(
        scenario.test_dataset, total=config.corpus_size, seed=config.seed + 1,
    )
    quarters = test_full.split([0.25, 0.25, 0.25, 0.25], rng)
    if scenario.kind == "ideal":
        return base, quarters[0], quarters[3]
    leak = ecosystem.generate(
        scenario.train_dataset, total=config.corpus_size, seed=config.seed + 2,
    )
    training = leak.merged_with(quarters[0], name=f"{leak.name}+quarter")
    testing = quarters[1].merged_with(quarters[2]).merged_with(
        quarters[3], name=f"{test_full.name}[rest]"
    )
    return base, training, testing


def run_scenario(scenario: Scenario,
                 ecosystem: Optional[SyntheticEcosystem] = None,
                 config: Optional[ExperimentConfig] = None,
                 ks: Optional[Sequence[int]] = None,
                 metric: Callable = kendall_tau,
                 metric_name: str = "kendall",
                 min_frequency: int = 1) -> ExperimentResult:
    """Run one scenario and return the correlation curves.

    >>> from repro.experiments.scenarios import scenario as get  # doctest: +SKIP
    >>> result = run_scenario(get("ideal-csdn"))                 # doctest: +SKIP
    """
    config = config or ExperimentConfig()
    ecosystem = ecosystem or SyntheticEcosystem(seed=config.seed)
    if not config.telemetry:
        return _run_scenario_stages(
            scenario, ecosystem, config, ks, metric, metric_name,
            min_frequency, telemetry_report=None,
        )
    # A scoped session, so each scenario's snapshot is its own run and
    # never mixes with process-wide or sibling-scenario telemetry.
    with obs.session() as telemetry:
        return _run_scenario_stages(
            scenario, ecosystem, config, ks, metric, metric_name,
            min_frequency, telemetry_report=lambda: build_report(
                telemetry.snapshot()
            ),
        )


def run_crossover(scenario: Scenario,
                  ecosystem: Optional[SyntheticEcosystem] = None,
                  config: Optional[ExperimentConfig] = None,
                  meters: Sequence[str] = CROSSOVER_METERS,
                  online_budget: int = 10**4,
                  offline_budget: int = 10**10,
                  enumerate_limit: Optional[int] = None) -> "CrossoverReport":
    """Online/offline crossover curves for a scenario's meter pair.

    Prepares the scenario corpora exactly like :func:`run_scenario`,
    trains the requested subset of the meter suite, and compares their
    guess streams on the testing split: materialized cracking curves
    up to ``online_budget`` and mask-extrapolated coverage out to
    ``offline_budget``.  Returns the
    :class:`repro.attacks.masks.CrossoverReport`.
    """
    from repro.attacks import crossover_report, guess_stream_for
    config = replace(config or ExperimentConfig(), meters=tuple(meters))
    ecosystem = ecosystem or SyntheticEcosystem(seed=config.seed)
    base, training, testing = prepare_scenario_data(
        scenario, ecosystem, config
    )
    trained = build_meters(base, training, config)
    limit = enumerate_limit if enumerate_limit is not None else (
        online_budget
    )
    return crossover_report(
        [
            (meter.name, guess_stream_for(meter, limit=limit))
            for meter in trained
        ],
        testing,
        online_budget=online_budget,
        offline_budget=offline_budget,
        enumerate_limit=limit,
    )


def _run_scenario_stages(
    scenario: Scenario,
    ecosystem: SyntheticEcosystem,
    config: ExperimentConfig,
    ks: Optional[Sequence[int]],
    metric: Callable,
    metric_name: str,
    min_frequency: int,
    telemetry_report: Optional[Callable[[], Dict[str, Any]]],
) -> ExperimentResult:
    telemetry = obs.get()
    with telemetry.timer("experiment.data.seconds"):
        base, training, testing = prepare_scenario_data(
            scenario, ecosystem, config
        )
    meters = build_meters(base, training, config)
    with telemetry.timer("experiment.evaluate.seconds"):
        curves, test_unique = evaluate_meters(
            meters, testing, ks=ks, metric=metric,
            metric_name=metric_name, min_frequency=min_frequency,
        )
    return ExperimentResult(
        scenario=scenario,
        curves=curves,
        test_unique=test_unique,
        metric_name=metric_name,
        telemetry=telemetry_report() if telemetry_report else None,
    )
