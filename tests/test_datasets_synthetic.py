"""Unit tests for the survey-grounded synthetic corpus generator."""

import pytest

from repro.datasets.profiles import DATASET_ORDER, profile
from repro.datasets.stats import (
    composition_table,
    overlap_fraction,
    top_k_table,
)
from repro.datasets.synthetic import (
    SyntheticEcosystem,
    SyntheticUser,
    generate_corpus,
)


@pytest.fixture(scope="module")
def ecosystem():
    return SyntheticEcosystem(seed=3, population=10_000)


@pytest.fixture(scope="module")
def csdn(ecosystem):
    return ecosystem.generate("csdn", total=8_000)


@pytest.fixture(scope="module")
def rockyou(ecosystem):
    return ecosystem.generate("rockyou", total=8_000)


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        first = SyntheticEcosystem(seed=5).generate("phpbb", total=500)
        second = SyntheticEcosystem(seed=5).generate("phpbb", total=500)
        assert first.counts() == second.counts()

    def test_different_seed_different_corpus(self):
        first = SyntheticEcosystem(seed=5).generate("phpbb", total=500)
        second = SyntheticEcosystem(seed=6).generate("phpbb", total=500)
        assert first.counts() != second.counts()

    def test_user_determinism(self):
        a = SyntheticUser(17, "English", seed=1)
        b = SyntheticUser(17, "English", seed=1)
        assert a.word == b.word
        assert a.digits == b.digits

    def test_generate_corpus_convenience(self):
        corpus = generate_corpus("yahoo", total=300, seed=9)
        assert corpus.total == 300
        assert corpus.name == "yahoo"


class TestValidation:
    def test_population_must_be_positive(self):
        with pytest.raises(ValueError):
            SyntheticEcosystem(population=0)

    def test_total_must_be_positive(self, ecosystem):
        with pytest.raises(ValueError):
            ecosystem.generate("csdn", total=0)

    def test_unknown_dataset(self, ecosystem):
        with pytest.raises(KeyError):
            ecosystem.generate("linkedin")


class TestCalibration:
    def test_metadata_from_profile(self, csdn):
        assert csdn.name == "csdn"
        assert csdn.language == "Chinese"
        assert csdn.location == "China"

    def test_top10_head_present(self, csdn):
        table, share = top_k_table(csdn, k=10)
        generated_head = {pw for pw, _ in table}
        published_head = set(profile("csdn").top10)
        # The published top-10 should dominate the generated head.
        assert len(generated_head & published_head) >= 6

    def test_top10_share_close_to_published(self, csdn):
        published = profile("csdn").top10_share
        _, share = top_k_table(csdn, k=10)
        assert share == pytest.approx(published, abs=0.05)

    def test_min_length_policy_respected(self, csdn):
        assert all(len(pw) >= 8 for pw in csdn)

    def test_max_length_policy_respected(self, ecosystem):
        singles = ecosystem.generate("singles", total=2_000)
        assert all(len(pw) <= 8 for pw in singles)

    def test_composition_direction_chinese(self, csdn):
        fractions = composition_table(csdn)
        published = profile("csdn").composition
        # Digits-only should dominate as published (45% vs 12% lower).
        assert fractions["^[0-9]+$"] > fractions["^[a-z]+$"]
        assert fractions["^[0-9]+$"] == pytest.approx(
            published["^[0-9]+$"], abs=0.15
        )

    def test_composition_direction_english(self, rockyou):
        fractions = composition_table(rockyou)
        # Rockyou is letters-heavy: lower-only far above digit-only.
        assert fractions["^[a-z]+$"] > fractions["^[0-9]+$"]

    def test_duplication_factor_reasonable(self, csdn):
        # The generator should produce realistic duplication: clearly
        # above 1 (popular passwords repeat), below 10.
        factor = csdn.total / csdn.unique
        assert 1.1 < factor < 10.0

    def test_every_profile_generates(self, ecosystem):
        for name in DATASET_ORDER:
            corpus = ecosystem.generate(name, total=300)
            assert corpus.total == 300
            assert corpus.unique > 10


class TestEcosystemSharing:
    def test_same_language_services_overlap(self, ecosystem):
        weibo = ecosystem.generate("weibo", total=6_000)
        zhenai = ecosystem.generate("zhenai", total=6_000)
        assert overlap_fraction(weibo, zhenai) > 0.05

    def test_cross_language_overlap_lower(self, ecosystem, rockyou):
        tianya = ecosystem.generate("tianya", total=6_000)
        phpbb = ecosystem.generate("phpbb", total=6_000)
        same_language = overlap_fraction(phpbb, rockyou)
        cross_language = overlap_fraction(phpbb, tianya)
        # Fig. 12: same-language overlap clearly above cross-language.
        assert same_language > cross_language

    def test_private_ecosystems_overlap_less(self):
        shared = SyntheticEcosystem(seed=2, population=5_000)
        a = shared.generate("yahoo", total=4_000)
        b = shared.generate("phpbb", total=4_000)
        separate = generate_corpus("phpbb", total=4_000, seed=99)
        assert overlap_fraction(a, b) > overlap_fraction(a, separate)


class TestUserMaterial:
    def test_base_password_classes(self):
        user = SyntheticUser(3, "English", seed=0)
        assert user.base_password("digits").isdigit()
        assert user.base_password("lower").isalpha()
        combo = user.base_password("letters_digits")
        assert combo[:1].isalpha() and combo[-1:].isdigit()
        rev = user.base_password("digits_letters")
        assert rev[:1].isdigit() and rev[-1:].isalpha()
        assert any(not ch.isalnum() for ch in user.base_password("symbol"))

    def test_unknown_class_rejected(self):
        user = SyntheticUser(3, "English", seed=0)
        with pytest.raises(ValueError):
            user.base_password("emoji")

    def test_chinese_words_are_pinyin_like(self):
        user = SyntheticUser(5, "Chinese", seed=0)
        assert user.word.isalpha()
        assert user.word.islower()
