"""The scoring engine: the frozen kernel, its refresh and model set-up.

``frozen_kernel``: :class:`repro.core.frozen.FrozenGrammar` compiles
the grammar's dict-of-FrequencyDistribution tables into interned-index
flat arrays.  The bench scores the same derivations through the dict
kernel and the frozen kernel, asserts bitwise equality (the snapshot
is an execution strategy, not a model change), and records the
kernel-for-kernel speedup plus the one-off snapshot build cost, as
medians over interleaved repeats.

``frozen_refresh``: after an update, the meter builds its next
snapshot from the stale one, reusing every length table the update
left alone.  The bench times that refresh against a full build of the
same grammar state, asserts both snapshots hold identical tables
(intern order included), and records the medians over repeated
updates.

``model_setup``: what a user waits for between a saved model and its
first scores.  The bench saves the meter as FPSMBIN1, then times
``load_meter``, ``frozen_grammar()`` and the first
``probability_many`` block (the word-index build plus scoring), and
asserts that block's scores equal per-call ``probability``.
"""

import statistics
import time
from array import array
from itertools import islice

import pytest

from repro.core.frozen import FrozenGrammar
from repro.core.grammar import FuzzyGrammar
from repro.core.meter import FuzzyPSM
from repro.persistence import load_meter, save_meter

from bench_lib import SMOKE, emit, record

#: Updates timed by the refresh bench (one refresh + one full build each).
REFRESH_REPEATS = 9
#: Interleaved repeats of the kernel and set-up benches.
REPEATS = 7
#: Passwords in the first scored block of the set-up bench.
FIRST_BLOCK = 4096


def _spread(name, values, scale=1.0):
    """``{name_median, name_min, name_max}`` of ``values`` times ``scale``."""
    return {
        f"{name}_median": statistics.median(values) * scale,
        f"{name}_min": min(values) * scale,
        f"{name}_max": max(values) * scale,
    }


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

    def timed(score, inputs):
        start = time.perf_counter()
        values = [score(item) for item in inputs]
        return values, time.perf_counter() - start

    build, frozen_times, dict_times = [], [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        frozen = FrozenGrammar(meter.grammar)
        build.append(time.perf_counter() - start)
        frozen_values, seconds = timed(frozen.derivation_probability, flats)
        frozen_times.append(seconds)
        dict_values, seconds = timed(
            meter.grammar.derivation_probability, derivations
        )
        dict_times.append(seconds)
        assert frozen_values == dict_values  # bit-identical, or a bug

    speedup = statistics.median(dict_times) / statistics.median(frozen_times)
    emit(
        capsys,
        f"(timing) frozen kernel: {len(derivations):,} derivations, "
        f"medians of {REPEATS} -- dict "
        f"{statistics.median(dict_times):.4f} s, frozen "
        f"{statistics.median(frozen_times):.4f} s ({speedup:.2f}x; "
        f"snapshot build {statistics.median(build) * 1e3:.2f} ms)",
    )
    record("frozen_kernel", derivations=len(derivations), repeats=REPEATS,
           **_spread("dict_seconds", dict_times),
           **_spread("frozen_seconds", frozen_times),
           **_spread("build_ms", build, 1e3), speedup=speedup)
    assert SMOKE or speedup >= 1.5


def _tables(frozen):
    """Every compiled table of ``frozen``, intern order included."""
    return (
        list(frozen.structure_table().items()),
        [
            (length, list(index.items()),
             array("d", probabilities).tobytes(), rules)
            for length in frozen.terminal_lengths()
            for index, probabilities, rules in [frozen.terminal_table(length)]
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


def test_timing_model_setup(meter, csdn_quarters, tmp_path, capsys):
    _, test = csdn_quarters
    block = list(islice(test.unique_passwords(), FIRST_BLOCK))
    path = str(tmp_path / "model.fpsm")
    save_meter(meter, path, fmt="binary")
    expected = [meter.probability(password) for password in block]
    stages = {"load": [], "frozen": [], "first_block": [], "setup": []}
    for _ in range(REPEATS):
        start = time.perf_counter()
        loaded = load_meter(path)
        loaded_at = time.perf_counter()
        loaded.frozen_grammar()
        frozen_at = time.perf_counter()
        scores = loaded.probability_many(block)
        done = time.perf_counter()
        for stage, seconds in (("load", loaded_at - start),
                               ("frozen", frozen_at - loaded_at),
                               ("first_block", done - frozen_at),
                               ("setup", done - start)):
            stages[stage].append(seconds)
        assert scores == expected  # bit-identical, or it is a bug
        del loaded

    medians = {stage: statistics.median(values) * 1e3
               for stage, values in stages.items()}
    emit(
        capsys,
        f"(timing) model set-up: {len(block):,}-password first block, "
        f"medians of {REPEATS} -- load {medians['load']:.1f} ms, frozen "
        f"build {medians['frozen']:.2f} ms, first block "
        f"{medians['first_block']:.1f} ms, set-up {medians['setup']:.1f} "
        f"ms [{min(stages['setup']) * 1e3:.1f}, "
        f"{max(stages['setup']) * 1e3:.1f}]",
    )
    spreads = {}
    for stage, values in stages.items():
        spreads.update(_spread(f"{stage}_ms", values, 1e3))
    record("model_setup", repeats=REPEATS, first_block=len(block),
           terminals=meter.frozen_grammar().terminal_count, **spreads)
