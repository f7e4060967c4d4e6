"""Ablation — the adaptive update phase on/off (DESIGN.md §6).

The paper's real-world scenario folds 1/4 of the target site's
passwords into training, modelling the update phase ("user-submitted
passwords are inserted into the training set and the PSM is
dynamically updated", Sec. V-C).  This ablation compares:

* static   — trained on the similar-service leak only;
* adaptive — leak + the update stream (the paper's real case).

The adaptive meter should track the target distribution better; that
gap is the value of the update phase.
"""

import random

import pytest

from repro.core.meter import FuzzyPSM
from repro.experiments.reporting import format_table
from repro.experiments.runner import evaluate_meters

from bench_lib import CORPUS_SIZE, SEED, emit


@pytest.fixture(scope="module")
def material(ecosystem, corpora):
    base_words = corpora["tianya"].unique_passwords()
    leak = ecosystem.generate("weibo", total=CORPUS_SIZE, seed=SEED + 7)
    target = ecosystem.generate("csdn", total=CORPUS_SIZE, seed=SEED + 8)
    quarters = target.split([0.25, 0.25, 0.25, 0.25],
                            random.Random(SEED))
    update_stream = quarters[0]
    test = quarters[1].merged_with(quarters[2]).merged_with(quarters[3])
    return base_words, leak, update_stream, test


def test_ablation_update_phase(benchmark, material, capsys):
    base_words, leak, update_stream, test = material

    def evaluate_both():
        static = FuzzyPSM.train(
            base_dictionary=base_words, training=list(leak.items())
        )
        adaptive = FuzzyPSM.train(
            base_dictionary=base_words, training=list(leak.items())
        )
        for password, count in update_stream.items():
            adaptive.update(password, count)
        results = {}
        for label, meter in (("static", static), ("adaptive", adaptive)):
            curves, _ = evaluate_meters([meter], test, min_frequency=4)
            results[label] = curves[0].mean
        return results

    results = benchmark.pedantic(evaluate_both, rounds=1, iterations=1)
    emit(capsys, format_table(
        ["Variant", "mean Kendall tau vs ideal"],
        [[label, f"{value:+.3f}"] for label, value in results.items()],
        title="Ablation -- update phase (leak-only vs leak + update "
              "stream, measuring CSDN)",
    ))
    assert results["adaptive"] >= results["static"]


def test_ablation_update_reaches_new_trends(benchmark, material, capsys):
    """The qualitative property behind the numbers: after updates, a
    previously underivable trend password becomes measurable."""
    base_words, leak, _, _ = material

    def run():
        meter = FuzzyPSM.train(
            base_dictionary=base_words, training=list(leak.items())
        )
        trend = "xinniankuaile2026!"
        before = meter.probability(trend)
        for _ in range(25):
            meter.update(trend)
        return before, meter.probability(trend)

    before, after = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(capsys, f"Ablation -- trend password probability: "
                 f"{before:.3e} -> {after:.3e} after 25 acceptances")
    assert before == 0.0
    assert after > 0.0
