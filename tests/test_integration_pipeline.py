"""End-to-end integration tests across subsystem boundaries.

These tests exercise the full paper pipeline on one small shared
setup: synthesise corpora -> train all six meters -> evaluate with
rank-correlation curves, guess enumeration, Monte-Carlo guess numbers
and un-usable-guess counts.
"""

import math
import random

import pytest

from repro import (
    FuzzyPSM,
    IdealMeter,
    MarkovMeter,
    MonteCarloEstimator,
    PCFGMeter,
    PasswordCorpus,
    SyntheticEcosystem,
    kendall_tau,
)
from repro.metrics.guessnumber import guess_numbers_by_enumeration
from repro.metrics.unusable import count_unusable_guesses


@pytest.fixture(scope="module")
def ecosystem():
    return SyntheticEcosystem(seed=21, population=10_000)


@pytest.fixture(scope="module")
def splits(ecosystem):
    corpus = ecosystem.generate("csdn", total=8_000)
    train, _, _, test = corpus.split(
        [0.25, 0.25, 0.25, 0.25], random.Random(3)
    )
    return train, test


@pytest.fixture(scope="module")
def base_corpus(ecosystem):
    return ecosystem.generate("tianya", total=30_000)


@pytest.fixture(scope="module")
def fuzzy(base_corpus, splits):
    train, _ = splits
    return FuzzyPSM.train(
        base_dictionary=base_corpus.unique_passwords(),
        training=list(train.items()),
    )


@pytest.fixture(scope="module")
def pcfg(splits):
    train, _ = splits
    return PCFGMeter.train(train.items())


@pytest.fixture(scope="module")
def markov(splits):
    train, _ = splits
    return MarkovMeter.train(train.items(), order=3)


class TestCrossModelConsistency:
    def test_all_models_measure_training_head(self, splits, fuzzy, pcfg,
                                              markov):
        train, _ = splits
        head = [pw for pw, _ in train.most_common(5)]
        for meter in (fuzzy, pcfg, markov):
            for password in head:
                assert meter.probability(password) > 0.0, (
                    meter.name, password
                )

    def test_popular_passwords_rank_high_everywhere(self, splits, fuzzy,
                                                    pcfg, markov):
        train, _ = splits
        top, _ = train.most_common(1)[0]
        rare = next(
            pw for pw, count in train.most_common() if count == 1
        )
        for meter in (fuzzy, pcfg, markov):
            assert meter.probability(top) > meter.probability(rare)


class TestGuessStreams:
    def test_enumeration_finds_popular_passwords(self, splits, fuzzy):
        train, test = splits
        targets = [pw for pw, _ in test.most_common(3)]
        results = guess_numbers_by_enumeration(
            fuzzy.iter_guesses(), targets, limit=20_000
        )
        found = [pw for pw, rank in results.items() if rank is not None]
        assert len(found) >= 2

    def test_unusable_guesses_grow_with_horizon(self, splits, fuzzy):
        _, test = splits
        counts = count_unusable_guesses(
            fuzzy.iter_guesses(), test.unique_passwords(),
            checkpoints=[100, 1_000, 5_000],
        )
        assert counts[100] <= counts[1_000] <= counts[5_000]

    def test_pcfg_vs_markov_unusable_ordering(self, splits, pcfg, markov):
        """Table III's shape: PCFG wastes fewer early guesses."""
        _, test = splits
        test_passwords = test.unique_passwords()
        pcfg_counts = count_unusable_guesses(
            pcfg.iter_guesses(), test_passwords, checkpoints=[100]
        )
        markov_counts = count_unusable_guesses(
            markov.iter_guesses(), test_passwords, checkpoints=[100]
        )
        assert pcfg_counts[100] <= markov_counts[100] + 10


class TestMonteCarloAgainstEnumeration:
    def test_estimates_match_exact_ranks(self, fuzzy):
        estimator = MonteCarloEstimator(
            fuzzy, sample_size=8_000, rng=random.Random(5)
        )
        exact = list(fuzzy.iter_guesses(limit=200))
        for rank, (password, probability) in enumerate(exact, start=1):
            if rank in (1, 10, 100):
                estimate = estimator.guess_number(probability)
                assert estimate == pytest.approx(rank, rel=1.0, abs=15), (
                    password, rank, estimate
                )

    def test_underivable_password_infinite(self, fuzzy):
        estimator = MonteCarloEstimator(
            fuzzy, sample_size=1_000, rng=random.Random(5)
        )
        assert estimator.guess_number(0.0) == math.inf


class TestIdealMeterAgreement:
    def test_meters_correlate_positively_with_ideal(self, splits, fuzzy,
                                                    pcfg, markov):
        _, test = splits
        ideal = IdealMeter(test.counts())
        passwords = [pw for pw, c in test.most_common() if c >= 2]
        ideal_scores = [ideal.probability(pw) for pw in passwords]
        for meter in (fuzzy, pcfg, markov):
            scores = [meter.probability(pw) for pw in passwords]
            assert kendall_tau(ideal_scores, scores) > 0.1, meter.name


class TestAdaptiveUpdate:
    def test_update_phase_tracks_new_trend(self, base_corpus, splits):
        train, _ = splits
        meter = FuzzyPSM.train(
            base_dictionary=base_corpus.unique_passwords(),
            training=list(train.items()),
        )
        trend = "brandnewfad2026"
        before = meter.probability(trend)
        for _ in range(50):
            meter.update(trend)
        after = meter.probability(trend)
        assert after > before
        assert after > 0.0
