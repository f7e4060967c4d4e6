"""The small-corpus serial fallback of ``train_grammar(..., jobs=N)``.

Regression guard for a measured footgun: worker startup rebuilds (and
recompiles) the base trie in every pool process, so for small corpora
``jobs=2`` was ~7x *slower* than serial (BENCH_timing.json,
``training_serial_vs_jobs2`` at 5k passwords).  Below
``PARALLEL_MIN_ENTRIES`` the trainer must therefore choose the serial
path on its own, without the caller having to know the tradeoff.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core import training
from repro.core.grammar import FuzzyGrammar
from repro.core.meter import FuzzyPSM
from repro.core.training import (
    PARALLEL_MIN_ENTRIES,
    build_base_trie,
    train_grammar,
)

from tests.conftest import BASE_DICTIONARY, TRAINING_PASSWORDS


@pytest.fixture()
def trie():
    return build_base_trie(BASE_DICTIONARY)


@pytest.fixture()
def multicore(monkeypatch):
    """Pretend the host has two cores so the CPU clamp stays out of
    the way (tests below that *want* the pool must not silently fall
    back on a single-core CI machine)."""
    monkeypatch.setattr(training, "_available_cpus", lambda: 2)


@pytest.fixture()
def pool_spy(monkeypatch):
    """Record the entries each pool run trains, still delegating.

    The pool receives first-seen windows of summed counts; every entry
    below has count 1, so a run's entries are its windows' count sum.
    """
    calls = []
    original = training._train_streaming_parallel

    def spy(windows, parser, jobs):
        windows = list(windows)
        calls.append(sum(sum(table.values()) for table in windows))
        return original(windows, parser, jobs)

    monkeypatch.setattr(training, "_train_streaming_parallel", spy)
    return calls


class TestFallbackChosen:
    def test_small_corpus_trains_serially(self, trie, pool_spy):
        train_grammar(TRAINING_PASSWORDS, trie, jobs=2)
        assert pool_spy == []

    def test_small_corpus_never_starts_a_pool(self, trie, monkeypatch):
        def boom(*_args, **_kwargs):
            raise AssertionError("pool started for a small corpus")

        monkeypatch.setattr(training, "_train_streaming_parallel", boom)
        train_grammar(TRAINING_PASSWORDS, trie, jobs=2)

    def test_fallback_is_observable(self, trie):
        with obs.session() as telemetry:
            train_grammar(TRAINING_PASSWORDS, trie, jobs=2)
            counters = telemetry.snapshot()["counters"]
        assert counters["train.fallback.serial"] == 1
        assert "train.parallel" not in counters

    def test_meter_train_inherits_the_fallback(self, pool_spy):
        with obs.session() as telemetry:
            FuzzyPSM.train(BASE_DICTIONARY, TRAINING_PASSWORDS, jobs=2)
            counters = telemetry.snapshot()["counters"]
        assert pool_spy == []
        assert counters["train.fallback.serial"] == 1


class TestFallbackResult:
    def test_fallback_grammar_equals_serial(self, trie):
        entries = TRAINING_PASSWORDS + [("password1", 7), ("Dragon!", 3)]
        assert (
            train_grammar(entries, trie, jobs=2)
            == train_grammar(entries, trie)
        )

    def test_fallback_still_skips_empty_passwords(self, trie):
        entries = ["", "password1", ""]
        assert (
            train_grammar(entries, trie, jobs=2)
            == train_grammar(entries, trie)
        )

    def test_fallback_still_raises_without_skip_empty(self, trie):
        with pytest.raises(ValueError, match="empty"):
            train_grammar(["password1", ""], trie, jobs=2,
                          skip_empty=False)


class TestThreshold:
    def test_pool_runs_at_or_above_threshold(self, trie, pool_spy,
                                             multicore):
        train_grammar(TRAINING_PASSWORDS, trie, jobs=2,
                      parallel_threshold=len(TRAINING_PASSWORDS))
        assert pool_spy == [len(TRAINING_PASSWORDS)]

    def test_override_forces_fallback(self, trie, pool_spy, multicore):
        train_grammar(TRAINING_PASSWORDS, trie, jobs=2,
                      parallel_threshold=len(TRAINING_PASSWORDS) + 1)
        assert pool_spy == []

    def test_module_cutoff_is_patchable(self, trie, pool_spy,
                                        multicore, monkeypatch):
        # The default is read at call time, so test suites (and tuning
        # forks) can lower it without threading a parameter through.
        monkeypatch.setattr(training, "PARALLEL_MIN_ENTRIES", 1)
        train_grammar(TRAINING_PASSWORDS, trie, jobs=2)
        assert pool_spy == [len(TRAINING_PASSWORDS)]

    def test_default_cutoff_clears_the_measured_regression(self):
        # BENCH_timing.json measured jobs=2 at ~7x slower than serial
        # for a 5k corpus; the shipped cutoff must sit well above that.
        assert PARALLEL_MIN_ENTRIES >= 20_000

    def test_threshold_ignored_on_serial_paths(self, trie, pool_spy):
        expected = train_grammar(TRAINING_PASSWORDS, trie)
        actual = train_grammar(TRAINING_PASSWORDS, trie, jobs=1,
                               parallel_threshold=0)
        assert actual == expected
        assert pool_spy == []

    def test_empty_corpus_with_zero_threshold(self, trie, multicore):
        # len([]) < 0 is False, so a zero threshold reaches the pool
        # helper, which must short-circuit before spawning workers.
        assert (
            train_grammar([], trie, jobs=2, parallel_threshold=0)
            == FuzzyGrammar()
        )


class TestCpuClamp:
    """``jobs`` beyond the core count degrade to serial, observably."""

    def test_single_core_host_never_pools(self, trie, pool_spy,
                                          monkeypatch):
        monkeypatch.setattr(training, "_available_cpus", lambda: 1)
        with obs.session() as telemetry:
            grammar = train_grammar(
                TRAINING_PASSWORDS, trie, jobs=4, parallel_threshold=0
            )
            counters = telemetry.snapshot()["counters"]
        assert pool_spy == []
        assert counters["train.fallback.serial"] == 1
        assert counters["training.parallel.fallback"] == 1
        assert grammar == train_grammar(TRAINING_PASSWORDS, trie)

    def test_jobs_clamped_to_core_count(self, trie, monkeypatch):
        monkeypatch.setattr(training, "_available_cpus", lambda: 2)
        seen = []
        original = training._train_streaming_parallel

        def spy(windows, parser, jobs):
            seen.append(jobs)
            return original(windows, parser, jobs)

        monkeypatch.setattr(training, "_train_streaming_parallel", spy)
        train_grammar(TRAINING_PASSWORDS, trie, jobs=8,
                      parallel_threshold=0)
        assert seen == [2]

    def test_streaming_single_core_falls_back(self, trie, monkeypatch):
        monkeypatch.setattr(training, "_available_cpus", lambda: 1)

        def boom(*_args, **_kwargs):
            raise AssertionError("pool started on a single-core host")

        monkeypatch.setattr(training, "_train_streaming_parallel", boom)
        with obs.session() as telemetry:
            grammar = training.train_grammar_streaming(
                iter([TRAINING_PASSWORDS]), trie,
                jobs=2, parallel_threshold=0,
            )
            counters = telemetry.snapshot()["counters"]
        assert counters["training.parallel.fallback"] == 1
        assert grammar == train_grammar(TRAINING_PASSWORDS, trie)
