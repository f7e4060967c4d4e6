"""Tests for the unified attack engine (repro.attacks.engine).

The engine's contract has three load-bearing clauses:

* **bit-identity** — every probability it emits equals
  ``FrozenGrammar.derivation_probability`` on the same derivation,
  with ``==``, not a tolerance;
* **differential equivalence** — its deduplicated guess stream agrees
  with the pre-engine reference enumeration
  (``tests/enumeration_oracle.py``) on every positive-probability
  guess;
* **beam soundness** — a floor-bounded beam yields exactly the guesses
  at or above the floor, in the same order as the full enumeration.
"""

import math
import random
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.attacks import (
    AttackEngine,
    Beam,
    FrozenSampler,
    GuessStream,
    guess_stream_for,
)
from repro.core import FuzzyPSM
from repro.metrics.enumeration import descending_products
from repro.meters import registry
from repro.meters.registry import TrainContext

from tests.enumeration_oracle import reference_guesses

BASE = ["password", "dragon", "monkey", "love", "abc", "sunshine"]
TRAINING = [
    "password1", "Password", "dragon", "monkey12", "love123",
    "p@ssword", "abc123", "drowssap", "PASSWORD", "sunshine",
] * 2

passwords = st.text(
    alphabet=string.ascii_letters + string.digits + "!@#$%^&*",
    min_size=1, max_size=12,
)

#: The differential tests exhaust ``reference_guesses`` — the
#: pre-engine cross-product enumerator, whose output is exponential in
#: password length/segmentation — so their grammars must stay small.
#: (The engine itself streams lazily and is exercised on the big
#: strategy by the bit-identity tests.)
small_passwords = st.text(
    alphabet=string.ascii_lowercase + string.digits + "@!",
    min_size=1, max_size=6,
)


def trained_meter():
    return FuzzyPSM.train(base_dictionary=BASE, training=TRAINING)


class TestBitIdentity:
    def test_probabilities_equal_frozen_kernel_exactly(self):
        meter = trained_meter()
        engine = meter.attack_engine()
        frozen = meter.frozen_grammar()
        count = 0
        for surface, probability, derivation in engine.derivations(
            limit=500
        ):
            assert probability == frozen.derivation_probability(derivation.flat())
            assert derivation.surface() == surface
            count += 1
        assert count > 50

    @given(st.lists(passwords, min_size=1, max_size=10))
    @settings(max_examples=25, deadline=None)
    def test_bit_identity_on_arbitrary_grammars(self, pws):
        meter = FuzzyPSM.train(base_dictionary=pws, training=pws)
        frozen = meter.frozen_grammar()
        for _, probability, derivation in meter.attack_engine(
        ).derivations(limit=100):
            assert probability == frozen.derivation_probability(derivation.flat())


class TestReferenceDifferential:
    def test_engine_matches_reference_enumeration(self):
        meter = trained_meter()
        reference = {
            surface: probability
            for surface, probability in reference_guesses(meter)
            if probability > 0.0
        }
        engine_guesses = dict(meter.attack_engine().guesses())
        assert set(engine_guesses) == set(reference)
        for surface, probability in engine_guesses.items():
            assert probability == pytest.approx(
                reference[surface], rel=1e-9
            )

    @given(st.lists(small_passwords, min_size=1, max_size=5))
    @settings(max_examples=20, deadline=None)
    def test_differential_on_arbitrary_grammars(self, pws):
        meter = FuzzyPSM.train(base_dictionary=pws, training=pws)
        reference = {
            surface: probability
            for surface, probability in reference_guesses(meter)
            if probability > 0.0
        }
        engine_guesses = dict(meter.attack_engine().guesses(limit=2000))
        if len(engine_guesses) < 2000:  # exhaustive: sets must agree
            assert set(engine_guesses) == set(reference)
        for surface, probability in engine_guesses.items():
            assert probability == pytest.approx(
                reference[surface], rel=1e-9
            )

    def test_stream_is_descending_and_unique(self):
        meter = trained_meter()
        stream = list(meter.attack_engine().guesses(limit=400))
        probabilities = [p for _, p in stream]
        assert probabilities == sorted(probabilities, reverse=True)
        surfaces = [s for s, _ in stream]
        assert len(surfaces) == len(set(surfaces))

    def test_guesses_match_measured_probability(self):
        """Stream probability == ``meter.probability`` whenever the
        canonical parse recovers the generating derivation.

        (They *can* legitimately differ: the stream scores the
        derivation it generated, while measurement scores the
        deterministic re-parse — e.g. a leet-of-reversed surface like
        ``drowss@p`` re-parses into fallback segments and measures
        0.0.  That asymmetry is the fuzzy model's, not the engine's.)
        """
        meter = trained_meter()
        matched = 0
        for surface, probability, derivation in meter.attack_engine(
        ).derivations(limit=100):
            if meter.parse(surface).to_derivation() == derivation:
                assert probability == meter.probability(surface)
                matched += 1
        assert matched > 50


class TestBeam:
    def test_floor_beam_equals_full_stream_above_floor(self):
        meter = trained_meter()
        engine = meter.attack_engine()
        full = list(engine.derivations(limit=300))
        floor = full[min(len(full), 150) - 1][1]
        expected = []
        for item in engine.derivations():
            if item[1] < floor:
                break
            expected.append(item)
        beamed = list(engine.derivations(beam=Beam(floor=floor)))
        assert beamed == expected

    @given(st.lists(small_passwords, min_size=1, max_size=5))
    @settings(max_examples=20, deadline=None)
    def test_floor_beam_differential_on_arbitrary_grammars(self, pws):
        meter = FuzzyPSM.train(base_dictionary=pws, training=pws)
        engine = meter.attack_engine()
        full = list(engine.derivations(limit=120))
        if not full:
            return
        floor = full[len(full) // 2][1]
        expected = []
        for item in engine.derivations():
            if item[1] < floor:
                break
            expected.append(item)
        beamed = list(engine.derivations(beam=Beam(floor=floor)))
        assert beamed == expected

    def test_floor_drops_are_counted(self):
        meter = trained_meter()
        engine = meter.attack_engine()
        stream = engine.guesses(beam=Beam(floor=1e-3))
        list(stream)
        assert stream.stats.floor_dropped > 0
        assert stream.stats.dropped_mass > 0.0

    def test_width_beam_yields_descending_subset(self):
        meter = trained_meter()
        engine = meter.attack_engine()
        full = {(s, p) for s, p, _ in engine.derivations()}
        narrowed = [
            (s, p) for s, p, _ in engine.derivations(beam=Beam(width=2))
        ]
        probabilities = [p for _, p in narrowed]
        assert probabilities == sorted(probabilities, reverse=True)
        assert set(narrowed) <= full
        stream = engine.guesses(beam=Beam(width=2))
        assert set(stream) <= set(narrowed)
        assert stream.stats.width_dropped > 0

    def test_beam_validation(self):
        with pytest.raises(ValueError):
            Beam(width=0)
        with pytest.raises(ValueError):
            Beam(floor=-0.1)

    def test_beam_telemetry_namespace(self):
        meter = trained_meter()
        engine = meter.attack_engine()
        with obs.session() as telemetry:
            list(engine.guesses(beam=Beam(floor=1e-3)))
            counters = telemetry.snapshot()["counters"]
        assert counters["attack.enum.yields"] > 0
        assert counters["attack.beam.floor_dropped"] > 0
        assert counters["attack.beam.dropped_mass_ppb"] > 0


class TestDescendingProductsOracle:
    @given(
        st.lists(
            st.lists(
                st.floats(min_value=0.01, max_value=1.0),
                min_size=1, max_size=5,
            ),
            min_size=1, max_size=3,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_sort(self, raw_factors):
        factors = [
            [
                (index, probability)
                for index, probability in enumerate(
                    sorted(values, reverse=True)
                )
            ]
            for values in raw_factors
        ]
        result = list(descending_products(factors))
        brute = {}

        def walk(position, chosen, product):
            if position == len(factors):
                brute[tuple(chosen)] = product
                return
            for index, probability in factors[position]:
                walk(position + 1, chosen + [index], product * probability)

        walk(0, [], 1.0)
        assert {values for values, _ in result} == set(brute)
        probabilities = [p for _, p in result]
        assert probabilities == sorted(probabilities, reverse=True)
        for values, probability in result:
            assert probability == brute[values]


class TestSampler:
    def test_sample_probability_matches_measure(self):
        meter = trained_meter()
        rng = random.Random(7)
        for _ in range(50):
            surface, probability = meter.attack_engine().sample(rng)
            assert probability > 0.0
            assert math.isclose(
                probability, meter.probability(surface), rel_tol=1e-12
            )

    def test_sampler_is_engine_backed(self):
        meter = trained_meter()
        engine = meter.attack_engine()
        assert isinstance(engine.sampler(), FrozenSampler)
        assert engine.sampler() is engine.sampler()  # cached

    def test_untrained_grammar_raises(self):
        meter = FuzzyPSM.train(base_dictionary=[], training=[])
        with pytest.raises(ValueError):
            meter.attack_engine().sample(random.Random(0))

    def test_sample_telemetry(self):
        meter = trained_meter()
        engine = meter.attack_engine()
        with obs.session() as telemetry:
            for _ in range(10):
                engine.sample(random.Random(3))
            counters = telemetry.snapshot()["counters"]
        # draws counts attempts (rejection redraws included), so ten
        # successful samples register at least ten draws.
        assert counters.get("attack.sample.draws", 0) + counters.get(
            "attack.sample.fallbacks", 0
        ) >= 10


class TestEngineLifecycle:
    def test_engine_rebuilds_after_update(self):
        meter = trained_meter()
        first = meter.attack_engine()
        assert meter.attack_engine() is first  # cached while current
        meter.update("brandnewword99")
        second = meter.attack_engine()
        assert second is not first
        assert second.epoch > first.epoch
        probability = meter.probability("brandnewword99")
        assert probability > 0.0
        # The rebuilt engine enumerates the new password at or above
        # its measured probability (exact enumeration down to a floor).
        assert any(
            surface == "brandnewword99"
            for surface, _ in second.guesses(
                beam=Beam(floor=probability / 2)
            )
        )

    def test_guess_stream_head_and_counters(self):
        meter = trained_meter()
        stream = meter.attack_engine().guesses()
        head = stream.head(10)
        assert len(head) == 10
        assert stream.yielded == 10
        assert stream.name == meter.name


class TestGuessStreamFor:
    def test_fuzzy_meter_uses_engine(self):
        meter = trained_meter()
        stream = guess_stream_for(meter, limit=20)
        assert isinstance(stream, GuessStream)
        assert stream.stats is not None
        assert len(list(stream)) == 20

    def test_baseline_meter_wraps_iter_guesses(self):
        pcfg = registry.build_meter(
            "pcfg",
            TrainContext(training=tuple((pw, 1) for pw in TRAINING)),
        )
        stream = guess_stream_for(pcfg, limit=20)
        assert isinstance(stream, GuessStream)
        assert stream.stats is None
        items = list(stream)
        assert 0 < len(items) <= 20
        probabilities = [p for _, p in items]
        assert probabilities == sorted(probabilities, reverse=True)


class TestMeterIntegration:
    def test_iter_guesses_is_engine_backed(self):
        meter = trained_meter()
        via_meter = list(meter.iter_guesses(limit=50))
        via_engine = list(meter.attack_engine().guesses(limit=50))
        assert via_meter == via_engine

    def test_attack_engine_build_telemetry(self):
        meter = trained_meter()
        with obs.session() as telemetry:
            AttackEngine(meter)
            meter.update("zzz123")
            meter.attack_engine()
            counters = telemetry.snapshot()["counters"]
        assert counters.get("attack.engine.builds", 0) >= 1
