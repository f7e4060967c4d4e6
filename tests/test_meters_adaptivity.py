"""Cross-meter adaptivity tests.

The paper notes that the PSMs of [33] (Markov) and [34] (PCFG) share
fuzzyPSM's update capability ("The two PSMs in [33], [34] also provide
this feature", Sec. IV-C).  All three trained meters in this library
therefore expose ``update`` with the same semantics:
counts shift towards the new observations and the measured
probabilities follow.
"""

import pytest

from repro.core import FuzzyPSM
from repro.meters.markov import MarkovMeter, Smoothing
from repro.meters.pcfg import PCFGMeter

TRAINING = [
    "password", "password", "password123", "123456", "123456",
    "dragon1", "iloveyou", "sunshine9", "qwerty12",
]


def make_meters():
    return [
        FuzzyPSM.train(base_dictionary=TRAINING, training=TRAINING),
        PCFGMeter.train(TRAINING),
        MarkovMeter.train(TRAINING, order=2,
                          smoothing=Smoothing.LAPLACE),
    ]


class TestUpdateSemantics:
    @pytest.mark.parametrize("index", [0, 1, 2],
                             ids=["fuzzyPSM", "PCFG", "Markov"])
    def test_observed_password_gains_probability(self, index):
        meter = make_meters()[index]
        target = "newtrend7"
        before = meter.probability(target)
        meter.update(target, count=20)
        assert meter.probability(target) > before

    @pytest.mark.parametrize("index", [0, 1, 2],
                             ids=["fuzzyPSM", "PCFG", "Markov"])
    def test_update_is_weighted(self, index):
        lightly = make_meters()[index]
        heavily = make_meters()[index]
        lightly.update("newtrend7", count=1)
        heavily.update("newtrend7", count=50)
        assert (
            heavily.probability("newtrend7")
            >= lightly.probability("newtrend7")
        )

    @pytest.mark.parametrize("index", [0, 1, 2],
                             ids=["fuzzyPSM", "PCFG", "Markov"])
    def test_other_passwords_dilute(self, index):
        """Mass is conserved: pushing a new password up must pull the
        rest of the distribution down (or hold it, never raise it)."""
        meter = make_meters()[index]
        before = meter.probability("password")
        meter.update("zzunrelated1", count=50)
        assert meter.probability("password") <= before

    @pytest.mark.parametrize("index", [0, 1, 2],
                             ids=["fuzzyPSM", "PCFG", "Markov"])
    def test_empty_update_rejected(self, index):
        meter = make_meters()[index]
        with pytest.raises(ValueError):
            meter.update("")


class TestAdaptivityParity:
    def test_all_meters_track_the_same_trend(self):
        """The paper's adaptive-meter story: after a fad password
        floods registrations, every learned meter must flag it weak
        (higher probability than a rare-but-ordinary password)."""
        fad = "eurocup2026"
        rare = "ordinary42x"
        for meter in make_meters():
            meter.update(rare, count=1)
            meter.update(fad, count=100)
            assert meter.probability(fad) > meter.probability(rare), (
                meter.name
            )
