"""Unit tests for the Markov meter (orders, smoothing, enumeration)."""

import random

import pytest

from repro.meters.markov import END, MarkovMeter, Smoothing


@pytest.fixture(scope="module")
def mle_meter():
    return MarkovMeter.train(
        ["password", "password", "passage"], order=2,
        smoothing=Smoothing.NONE,
    )


class TestConstruction:
    def test_invalid_order(self):
        with pytest.raises(ValueError):
            MarkovMeter(order=0)

    def test_invalid_discount(self):
        with pytest.raises(ValueError):
            MarkovMeter(discount=1.5)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            MarkovMeter(laplace_alpha=0.0)

    def test_observe_empty_rejected(self):
        with pytest.raises(ValueError):
            MarkovMeter().update("")


class TestMLE:
    def test_seen_beats_unseen(self, mle_meter):
        assert mle_meter.probability("password") > 0
        assert mle_meter.probability("zzzz") == 0.0

    def test_more_frequent_scores_higher(self, mle_meter):
        assert (
            mle_meter.probability("password")
            > mle_meter.probability("passage")
        )

    def test_distribution_sums_to_one(self):
        # With the END symbol the model is a proper distribution; on a
        # tiny closed training set the seen strings' masses sum <= 1.
        meter = MarkovMeter.train(["ab", "ab", "ac"], order=1,
                                  smoothing=Smoothing.NONE)
        total = sum(
            meter.probability(s) for s in ("ab", "ac", "a", "b", "c")
        )
        assert total <= 1.0 + 1e-12
        assert meter.probability("ab") == pytest.approx(2 / 3)

    def test_empty_and_overlong_passwords(self, mle_meter):
        assert mle_meter.probability("") == 0.0
        assert mle_meter.probability("a" * 100) == 0.0


class TestLaplace:
    def test_unseen_gets_positive_probability(self):
        meter = MarkovMeter.train(["password"], order=2,
                                  smoothing=Smoothing.LAPLACE)
        assert meter.probability("zzzz") > 0.0

    def test_seen_still_preferred(self):
        meter = MarkovMeter.train(["password"] * 10, order=2,
                                  smoothing=Smoothing.LAPLACE)
        assert meter.probability("password") > meter.probability("zzzzzzzz")

    def test_transition_normalised(self):
        meter = MarkovMeter.train(["abc"], order=1,
                                  smoothing=Smoothing.LAPLACE)
        alphabet = meter._alphabet + [END]
        total = sum(
            meter.transition_probability("a", ch) for ch in alphabet
        )
        assert total == pytest.approx(1.0)


class TestBackoff:
    def test_unseen_context_backs_off(self):
        meter = MarkovMeter.train(["password"], order=3,
                                  smoothing=Smoothing.BACKOFF)
        # "zwor" never appears as a context; backing off to "wor"/"or"
        # still yields mass for the 'd'.
        assert meter.transition_probability("zwo", "r") > 0.0

    def test_transition_normalised(self):
        meter = MarkovMeter.train(["password", "passage", "pass"],
                                  order=2, smoothing=Smoothing.BACKOFF)
        alphabet = meter._alphabet + [END]
        for context in ("pa", "ss", "zz"):
            total = sum(
                meter.transition_probability(context, ch)
                for ch in alphabet
            )
            assert total == pytest.approx(1.0), context

    def test_seen_dominates(self):
        meter = MarkovMeter.train(["password"] * 20, order=2,
                                  smoothing=Smoothing.BACKOFF)
        assert meter.probability("password") > 0.1


class TestGoodTuring:
    def test_probabilities_positive_for_seen(self):
        meter = MarkovMeter.train(["password", "passage"], order=2,
                                  smoothing=Smoothing.GOOD_TURING)
        assert meter.probability("password") > 0.0

    def test_unseen_successor_gets_missing_mass(self):
        meter = MarkovMeter.train(["ab", "ac"], order=1,
                                  smoothing=Smoothing.GOOD_TURING)
        assert meter.transition_probability("a", "z") > 0.0

    def test_sampling_not_supported(self):
        meter = MarkovMeter.train(["password"], order=1,
                                  smoothing=Smoothing.GOOD_TURING)
        with pytest.raises(NotImplementedError):
            meter.sample(random.Random(0))


class TestSampling:
    @pytest.mark.parametrize("smoothing", [
        Smoothing.NONE, Smoothing.LAPLACE, Smoothing.BACKOFF,
    ])
    def test_sample_matches_measure(self, smoothing):
        meter = MarkovMeter.train(
            ["password", "passage", "pass123", "dragon"],
            order=2, smoothing=smoothing,
        )
        rng = random.Random(7)
        for _ in range(40):
            password, probability = meter.sample(rng)
            assert meter.probability(password) == pytest.approx(
                probability, rel=1e-9
            ), password

    def test_sample_untrained_raises(self):
        with pytest.raises(ValueError):
            MarkovMeter().sample(random.Random(0))


class TestEnumeration:
    def test_guesses_unique_and_within_band_order(self):
        meter = MarkovMeter.train(
            ["password", "password", "passage", "dragon"],
            order=2, smoothing=Smoothing.NONE,
        )
        guesses = list(meter.iter_guesses(limit=100))
        strings = [g for g, _ in guesses]
        assert len(strings) == len(set(strings))
        assert "password" in strings[:5]

    def test_guess_probabilities_match_measure(self):
        meter = MarkovMeter.train(
            ["password", "passage"], order=2, smoothing=Smoothing.NONE,
        )
        for guess, probability in meter.iter_guesses(limit=30):
            assert meter.probability(guess) == pytest.approx(probability)

    def test_banded_enumeration_is_globally_descending(self):
        # Bands partition [0, 1) into [r^(k+1), r^k) intervals and are
        # sorted internally, so the whole stream is descending.
        meter = MarkovMeter.train(
            ["abc", "abd", "acc", "abc"], order=1, smoothing=Smoothing.NONE,
        )
        probs = [p for _, p in meter.iter_guesses(limit=50)]
        assert probs == sorted(probs, reverse=True)

    def test_invalid_band_ratio(self):
        meter = MarkovMeter.train(["abc"], order=1)
        with pytest.raises(ValueError):
            list(meter.iter_guesses(limit=1, band_ratio=1.5))

    def test_untrained_yields_nothing(self):
        assert list(MarkovMeter().iter_guesses(limit=5)) == []
