"""The scoring engine: the frozen kernel and its refresh.

``frozen_kernel``: :class:`repro.core.frozen.FrozenGrammar` compiles
the grammar's dict-of-FrequencyDistribution tables into interned-index
flat arrays.  The bench scores the same derivations through the dict
kernel and the frozen kernel, asserts bitwise equality (the snapshot
is an execution strategy, not a model change), and records the
kernel-for-kernel speedup plus the one-off snapshot build cost.

``frozen_refresh``: after an update, the meter builds its next
snapshot from the stale one, reusing every length table the update
left alone.  The bench times that refresh against a full build of the
same grammar state, asserts both snapshots hold identical tables
(intern order included), and records the medians over repeated
updates.
"""

import statistics
import time
from array import array
from itertools import islice

import pytest

from repro.core.frozen import FrozenGrammar, freeze
from repro.core.grammar import FuzzyGrammar
from repro.core.meter import FuzzyPSM

from bench_lib import SMOKE, emit, record

#: Updates timed by the refresh bench (one refresh + one full build each).
REFRESH_REPEATS = 9


@pytest.fixture(scope="module")
def meter(corpora, csdn_quarters):
    train, _ = csdn_quarters
    return FuzzyPSM.train(
        base_dictionary=corpora["tianya"].unique_passwords(),
        training=list(train.items()),
    )


def test_timing_frozen_kernel(meter, csdn_quarters, capsys):
    # Each kernel gets its own input form: the frozen kernel the flat
    # parse the parser produces, the dict kernel the reference Derivation.
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


def _tables(frozen):
    """Every compiled table of ``frozen``, intern order included."""
    return (
        list(frozen.structure_table().items()),
        [
            (length, list(index.items()),
             array("d", probabilities).tobytes(), runs)
            for length in frozen.terminal_lengths()
            for index, probabilities, runs in [frozen.terminal_table(length)]
        ],
        frozen.capitalization_pair, frozen.reverse_pair,
        frozen.allcaps_pair, frozen.leet_pairs,
    )


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
        assert _tables(refreshed) == _tables(full)

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
