"""Unit tests for the common meter interface and scale conversions."""

import math

import pytest

from repro.meters.base import (
    Meter,
    ProbabilisticMeter,
    entropy_to_probability,
    probability_to_entropy,
)


class TestEntropyProbabilityConversion:
    def test_zero_entropy_is_certainty(self):
        assert entropy_to_probability(0.0) == 1.0

    def test_ten_bits(self):
        assert entropy_to_probability(10.0) == pytest.approx(1 / 1024)

    def test_negative_entropy_rejected(self):
        with pytest.raises(ValueError):
            entropy_to_probability(-1.0)

    def test_round_trip(self):
        for bits in (0.0, 1.0, 7.5, 20.0, 64.0):
            assert probability_to_entropy(
                entropy_to_probability(bits)
            ) == pytest.approx(bits)

    def test_zero_probability_maps_to_infinite_entropy(self):
        assert probability_to_entropy(0.0) == math.inf

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            probability_to_entropy(1.5)
        with pytest.raises(ValueError):
            probability_to_entropy(-0.1)

    def test_monotone_decreasing(self):
        values = [entropy_to_probability(b) for b in (0, 1, 2, 4, 8)]
        assert values == sorted(values, reverse=True)


class _ConstantMeter(Meter):
    name = "constant"

    def __init__(self, value: float) -> None:
        self._value = value

    def probability(self, password: str) -> float:
        return self._value


class TestMeterInterface:
    def test_entropy_derived_from_probability(self):
        meter = _ConstantMeter(0.25)
        assert meter.entropy("anything") == pytest.approx(2.0)

    def test_probabilities_vectorised(self):
        meter = _ConstantMeter(0.5)
        assert meter.probability_many(["a", "b", "c"]) == [0.5, 0.5, 0.5]

    def test_probabilities_empty(self):
        assert _ConstantMeter(0.5).probability_many([]) == []

    def test_abstract_meter_cannot_instantiate(self):
        with pytest.raises(TypeError):
            Meter()  # type: ignore[abstract]


class _BareProbabilistic(ProbabilisticMeter):
    name = "bare"

    def probability(self, password: str) -> float:
        return 0.5


class TestProbabilisticMeterDefaults:
    def test_sample_not_implemented_by_default(self):
        import random
        with pytest.raises(NotImplementedError):
            _BareProbabilistic().sample(random.Random(0))

    def test_iter_guesses_not_implemented_by_default(self):
        with pytest.raises(NotImplementedError):
            next(iter(_BareProbabilistic().iter_guesses()))
