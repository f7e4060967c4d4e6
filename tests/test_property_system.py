"""Property-based tests for system-level invariants.

Covers the corpus container (mass conservation under splits/merges),
the attack simulator (budget monotonicity) and the suggestion engine
(every suggestion honours policy and target) — the invariants the
examples and benches silently rely on.
"""

import random
import string

from hypothesis import given, settings, strategies as st

from repro.attacks.simulator import (
    LockoutPolicy,
    OnlineAttack,
    head_guess_stream,
)
from repro.core.policy import PasswordPolicy
from repro.core.suggestions import suggest_stronger
from repro.datasets.corpus import PasswordCorpus
from repro.meters.nist import NISTMeter

passwords = st.text(
    alphabet=string.ascii_lowercase + string.digits,
    min_size=1, max_size=12,
)

corpora = st.dictionaries(
    passwords, st.integers(min_value=1, max_value=20),
    min_size=1, max_size=30,
).map(PasswordCorpus)


class TestCorpusInvariants:
    @given(corpora, st.integers(0, 2**31))
    @settings(max_examples=50)
    def test_split_conserves_mass(self, corpus, seed):
        parts = corpus.split([0.3, 0.3, 0.4], random.Random(seed))
        assert sum(part.total for part in parts) == corpus.total
        # Per-password counts are conserved too.
        for password in corpus:
            assert sum(
                part.count(password) for part in parts
            ) == corpus.count(password)

    @given(corpora, corpora)
    @settings(max_examples=50)
    def test_merge_conserves_mass(self, first, second):
        merged = first.merged_with(second)
        assert merged.total == first.total + second.total
        for password in set(first) | set(second):
            assert merged.count(password) == (
                first.count(password) + second.count(password)
            )

    @given(corpora)
    @settings(max_examples=50)
    def test_most_common_descending(self, corpus):
        counts = [count for _, count in corpus.most_common()]
        assert counts == sorted(counts, reverse=True)

    @given(corpora)
    @settings(max_examples=50)
    def test_frequencies_sum_to_one(self, corpus):
        total = sum(
            corpus.frequency(password) for password in corpus
        )
        assert abs(total - 1.0) < 1e-9


class TestAttackInvariants:
    @given(corpora, st.integers(1, 50))
    @settings(max_examples=40)
    def test_compromise_monotone_in_budget(self, corpus, budget):
        smaller = OnlineAttack(
            LockoutPolicy(attempts_per_window=budget)
        ).run(head_guess_stream(corpus), corpus)
        larger = OnlineAttack(
            LockoutPolicy(attempts_per_window=budget + 10)
        ).run(head_guess_stream(corpus), corpus)
        assert (
            larger.accounts_compromised
            >= smaller.accounts_compromised
        )

    @given(corpora)
    @settings(max_examples=40)
    def test_self_attack_with_full_budget_compromises_all(self, corpus):
        outcome = OnlineAttack(
            LockoutPolicy(attempts_per_window=corpus.unique)
        ).run(head_guess_stream(corpus), corpus)
        assert outcome.accounts_compromised == corpus.total
        assert outcome.unique_passwords_recovered == corpus.unique

    @given(corpora, st.integers(1, 20))
    @settings(max_examples=40)
    def test_compromised_never_exceeds_accounts(self, corpus, budget):
        outcome = OnlineAttack(
            LockoutPolicy(attempts_per_window=budget)
        ).run(head_guess_stream(corpus), corpus)
        assert 0 <= outcome.accounts_compromised <= corpus.total
        assert 0.0 <= outcome.compromise_rate <= 1.0


class TestSuggestionInvariants:
    @given(st.text(alphabet=string.ascii_lowercase, min_size=4,
                   max_size=8),
           st.integers(12, 20))
    @settings(max_examples=25, deadline=None)
    def test_all_suggestions_meet_target(self, password, bits):
        meter = NISTMeter()
        suggestions = suggest_stronger(
            meter, password, target_bits=float(bits),
            max_suggestions=4,
        )
        for suggestion in suggestions:
            assert suggestion.entropy_bits >= bits
            assert suggestion.password != password

    @given(st.text(alphabet=string.ascii_lowercase, min_size=6,
                   max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_policy_always_honoured(self, password):
        meter = NISTMeter()
        policy = PasswordPolicy(min_length=6, max_length=10)
        suggestions = suggest_stronger(
            meter, password, target_bits=16.0, policy=policy,
            max_suggestions=6,
        )
        for suggestion in suggestions:
            assert policy.is_allowed(suggestion.password)

    @given(st.text(alphabet=string.ascii_lowercase, min_size=4,
                   max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_edit_counts_bounded(self, password):
        meter = NISTMeter()
        suggestions = suggest_stronger(
            meter, password, target_bits=14.0, max_edits=2,
            max_suggestions=6,
        )
        for suggestion in suggestions:
            assert 1 <= suggestion.edit_count <= 2
