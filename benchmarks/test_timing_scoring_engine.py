"""The two-layer scoring engine: frozen kernel + parallel sweeps.

Layer 1 (``frozen_kernel``): :class:`repro.core.frozen.FrozenGrammar`
compiles the grammar's dict-of-FrequencyDistribution tables into
interned-index flat arrays.  The bench scores the same derivations
through the dict kernel and the frozen kernel, asserts bitwise
equality (the snapshot is an execution strategy, not a model change),
and records the kernel-for-kernel speedup plus the one-off snapshot
build cost.

The refresh (``frozen_refresh``): after an update, the meter builds
its next snapshot from the stale one, reusing every length table the
update left alone.  The bench times that refresh against a full build
of the same grammar state, asserts both snapshots export identical
tables, and records the medians over repeated updates.

Layer 2 (``scoring_parallel``): the corpus-evaluation workload — a
large stream with heavy password multiplicity — through three engines:
the naive per-call loop (how evaluation sweeps scored before the batch
API), serial ``probability_many``, and ``probability_many(jobs=4)``.
All three must agree bit for bit; the recorded speedups are measured
against the naive loop, the path every sweep used to take.

Ordering is conservative: the fast paths run first, each on a fresh
meter instance, so any cache state left on shared structures favours
the reference side.
"""

import statistics
import time
from itertools import cycle, islice

import pytest

from repro.core.frozen import FrozenGrammar, freeze
from repro.core.grammar import FuzzyGrammar
from repro.core.meter import FuzzyPSM

from bench_lib import SMOKE, emit, record

#: The evaluation-stream shape from the ISSUE acceptance bar: >= 100k
#: scores with ~30% distinct passwords.  Smoke keeps the same shape at
#: toy scale (equivalence still holds; ratios are skipped).
STREAM_SIZE = 600 if SMOKE else 100_000
DISTINCT_SHARE = 0.3
#: Updates timed by the refresh bench (one refresh + one full build each).
REFRESH_REPEATS = 9


@pytest.fixture(scope="module")
def meter(corpora, csdn_quarters):
    train, _ = csdn_quarters
    return FuzzyPSM.train(
        base_dictionary=corpora["tianya"].unique_passwords(),
        training=list(train.items()),
    )


@pytest.fixture(scope="module")
def evaluation_stream(corpora, csdn_quarters):
    """~30%-distinct stream: test-quarter uniques topped up from rockyou."""
    _, test = csdn_quarters
    pool = list(dict.fromkeys(
        list(test.unique_passwords())
        + list(corpora["rockyou"].unique_passwords())
    ))
    distinct = pool[:max(1, int(STREAM_SIZE * DISTINCT_SHARE))]
    return list(islice(cycle(distinct), STREAM_SIZE)), len(distinct)


def test_timing_frozen_kernel(meter, csdn_quarters, capsys):
    # Each kernel gets its own input form: the frozen kernel the flat
    # parse the parser caches, the dict kernel the reference Derivation.
    _, test = csdn_quarters
    parses = [meter.parse(password) for password in test.unique_passwords()]
    derivations = [parse.to_derivation() for parse in parses]
    flats = [parse.flat for parse in parses]

    start = time.perf_counter()
    frozen = freeze(meter.grammar)
    build_seconds = time.perf_counter() - start

    def best_of_three(score, inputs):
        timings = []
        for _ in range(3):
            start = time.perf_counter()
            values = [score(item) for item in inputs]
            timings.append(time.perf_counter() - start)
        return values, min(timings)

    frozen_values, frozen_seconds = best_of_three(
        frozen.derivation_probability, flats
    )
    dict_values, dict_seconds = best_of_three(
        meter.grammar.derivation_probability, derivations
    )

    assert frozen_values == dict_values  # bit-identical, or it is a bug
    speedup = dict_seconds / frozen_seconds
    emit(
        capsys,
        f"(timing) frozen kernel: {len(derivations):,} derivations -- "
        f"dict {dict_seconds:.3f} s, frozen {frozen_seconds:.3f} s "
        f"({speedup:.2f}x; snapshot build {build_seconds:.3f} s)",
    )
    record("frozen_kernel", derivations=len(derivations),
           dict_seconds=dict_seconds, frozen_seconds=frozen_seconds,
           build_seconds=build_seconds, speedup=speedup)
    assert SMOKE or speedup >= 1.5


def test_timing_frozen_refresh(meter, csdn_quarters, capsys):
    _, test = csdn_quarters
    # A meter of its own (a copy of the grammar), so the updates below
    # leave the module's shared meter untouched.
    own = FuzzyPSM(
        FuzzyGrammar.from_arrays(meter.grammar.to_arrays()),
        meter.trie, meter.config,
    )
    own.frozen_grammar()
    refresh_ms, full_ms = [], []
    passwords = list(islice(test.unique_passwords(), REFRESH_REPEATS))
    assert len(passwords) == REFRESH_REPEATS
    for password in passwords:
        own.update(password)
        start = time.perf_counter()
        refreshed = own.frozen_grammar()
        refresh_ms.append((time.perf_counter() - start) * 1e3)
        start = time.perf_counter()
        full = FrozenGrammar(own.grammar)
        full_ms.append((time.perf_counter() - start) * 1e3)
        assert refreshed.to_tables() == full.to_tables()

    refresh_median = statistics.median(refresh_ms)
    full_median = statistics.median(full_ms)
    speedup = full_median / refresh_median
    emit(
        capsys,
        f"(timing) frozen refresh: {REFRESH_REPEATS} updates -- refresh "
        f"median {refresh_median:.3f} ms "
        f"[{min(refresh_ms):.3f}, {max(refresh_ms):.3f}], full build "
        f"median {full_median:.2f} ms "
        f"[{min(full_ms):.2f}, {max(full_ms):.2f}] ({speedup:.1f}x)",
    )
    record("frozen_refresh", repeats=REFRESH_REPEATS,
           refresh_median_ms=refresh_median,
           refresh_min_ms=min(refresh_ms), refresh_max_ms=max(refresh_ms),
           full_median_ms=full_median,
           full_min_ms=min(full_ms), full_max_ms=max(full_ms),
           speedup=speedup)
    assert SMOKE or speedup >= 10


def test_timing_parallel_scoring(meter, evaluation_stream, capsys):
    stream, distinct = evaluation_stream

    def fresh_meter():
        clone = FuzzyPSM(meter.grammar, meter.trie, meter.config)
        clone.probability("warmup")  # build the compiled snapshot
        return clone

    def best_of_three(engine):
        timings = []
        for _ in range(3):
            clone = fresh_meter()  # cold caches for every trial
            start = time.perf_counter()
            values = engine(clone)
            timings.append(time.perf_counter() - start)
        return values, min(timings)

    parallel, parallel_seconds = best_of_three(
        lambda clone: clone.probability_many(
            stream, jobs=4, parallel_threshold=0
        )
    )
    serial, serial_seconds = best_of_three(
        lambda clone: clone.probability_many(stream)
    )
    naive, naive_seconds = best_of_three(
        lambda clone: [clone.probability(password) for password in stream]
    )

    assert parallel == serial == naive  # engines must agree bit for bit
    parallel_speedup = naive_seconds / parallel_seconds
    serial_speedup = naive_seconds / serial_seconds
    emit(
        capsys,
        f"(timing) parallel scoring: {len(stream):,} scores "
        f"({distinct:,} distinct) -- per-call {naive_seconds:.2f} s, "
        f"serial batch {serial_seconds:.2f} s ({serial_speedup:.2f}x), "
        f"jobs=4 {parallel_seconds:.2f} s ({parallel_speedup:.2f}x)",
    )
    record("scoring_parallel", stream=len(stream), distinct=distinct,
           jobs=4, naive_seconds=naive_seconds,
           serial_seconds=serial_seconds,
           parallel_seconds=parallel_seconds,
           serial_speedup=serial_speedup,
           parallel_speedup=parallel_speedup)
    assert SMOKE or parallel_speedup >= 2.0
