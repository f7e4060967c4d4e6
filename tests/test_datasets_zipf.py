"""Unit tests for the Zipf frequency-distribution analysis."""

import pytest

from repro.datasets.corpus import PasswordCorpus
from repro.datasets.zipf import (
    fit_zipf,
    frequency_spectrum,
    ideal_meter_coverage,
)


class TestFrequencySpectrum:
    def test_basic(self):
        corpus = PasswordCorpus(["a"] * 3 + ["b"] * 3 + ["c"])
        assert frequency_spectrum(corpus) == {1: 1, 3: 2}

    def test_sorted_keys(self):
        corpus = PasswordCorpus(["a"] * 5 + ["b"] * 2 + ["c"])
        assert list(frequency_spectrum(corpus)) == [1, 2, 5]

    def test_spectrum_accounts_for_everything(self):
        corpus = PasswordCorpus(["a"] * 4 + ["b"] * 2 + ["c", "d"])
        spectrum = frequency_spectrum(corpus)
        assert sum(
            frequency * count for frequency, count in spectrum.items()
        ) == corpus.total
        assert sum(spectrum.values()) == corpus.unique


class TestZipfFit:
    def _zipf_corpus(self, exponent=1.0, head=2000, ranks=300):
        return PasswordCorpus({
            f"pw{rank:04d}": max(1, round(head / rank ** exponent))
            for rank in range(1, ranks + 1)
        })

    def test_recovers_exponent(self):
        for true_s in (0.7, 1.0, 1.3):
            fit = fit_zipf(self._zipf_corpus(exponent=true_s))
            assert fit.exponent == pytest.approx(true_s, abs=0.1)

    def test_good_fit_on_zipf_data(self):
        fit = fit_zipf(self._zipf_corpus())
        assert fit.r_squared > 0.99

    def test_predicted_frequency(self):
        fit = fit_zipf(self._zipf_corpus(exponent=1.0, head=2000))
        assert fit.predicted_frequency(1) == pytest.approx(2000,
                                                           rel=0.25)
        assert fit.predicted_frequency(100) < fit.predicted_frequency(10)
        with pytest.raises(ValueError):
            fit.predicted_frequency(0)

    def test_singleton_tail_excluded(self):
        corpus = PasswordCorpus(
            {"a": 100, "b": 50, "c": 25, "d": 12, "e": 6, "f": 3,
             **{f"tail{i}": 1 for i in range(500)}}
        )
        fit = fit_zipf(corpus, min_frequency=2)
        assert fit.ranks_used == 6

    def test_too_few_ranks_rejected(self):
        with pytest.raises(ValueError):
            fit_zipf(PasswordCorpus({"a": 5, "b": 3}))

    def test_synthetic_corpora_are_zipf_like(self):
        """The generator must produce the heavy-tailed decay real
        leaks show — the property both the ideal meter and the top-10
        calibration rest on."""
        from repro.datasets.synthetic import generate_corpus
        corpus = generate_corpus("rockyou", total=12_000, seed=2)
        fit = fit_zipf(corpus)
        assert 0.3 < fit.exponent < 2.0
        assert fit.r_squared > 0.8


class TestIdealMeterCoverage:
    def test_basic(self):
        corpus = PasswordCorpus(["a"] * 8 + ["b"] * 4 + ["c", "d"])
        mass, unique = ideal_meter_coverage(corpus, threshold=4)
        assert mass == pytest.approx(12 / 14)
        assert unique == pytest.approx(2 / 4)

    def test_threshold_one_covers_all(self):
        corpus = PasswordCorpus(["a", "b", "c"])
        assert ideal_meter_coverage(corpus, threshold=1) == (1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ideal_meter_coverage(PasswordCorpus([]), threshold=4)
        with pytest.raises(ValueError):
            ideal_meter_coverage(PasswordCorpus(["a"]), threshold=0)

    def test_paper_cutoff_on_synthetic_csdn(self):
        """Sec. V-D: only f_pw >= 4 passwords 'show their real
        strength'.  The head-heavy CSDN profile leaves a meaningful
        reliably-rankable mass."""
        from repro.datasets.synthetic import generate_corpus
        corpus = generate_corpus("csdn", total=12_000, seed=3)
        mass, unique = ideal_meter_coverage(corpus, threshold=4)
        assert mass > 0.10          # the popular head is rankable
        assert unique < 0.10        # but few distinct passwords are
