"""Executable form of the paper's Table I attacker taxonomy.

Table I distinguishes trawling attackers by channel:

* **online** — interacts with the live server, so detection and
  lockout cap the guesses per account (NIST's example: 100 failed
  attempts per 30 days; the paper's budget: ``< 10^4``); the optimal
  strategy is the few most popular passwords against every account;
* **offline** — holds the hash file, limited only by compute; the
  guess budget is how many hashes the hardware evaluates within the
  attacker's time window (``> 10^9`` for fast hashes; orders of
  magnitude fewer for bcrypt/scrypt/PBKDF2, the defence footnote 5
  recommends).

Both attacks take a *guess stream* — any decreasing-probability
iterable of ``(surface, probability)`` pairs: the attack engine's
:class:`~repro.attacks.engine.GuessStream`, a baseline meter's
``iter_guesses()``, or a corpus head — and a test corpus of accounts
(one account per entry, duplicates included: popular passwords protect
many accounts, which is exactly why they fall first).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple

from repro import obs
from repro.datasets.corpus import PasswordCorpus


def _run_guessing_session(
    guesses: Iterable[Tuple[str, float]],
    accounts: PasswordCorpus,
    budget: int,
) -> Tuple[int, int, int]:
    """The shared attack loop: try distinct guesses up to ``budget``.

    Returns ``(tried, accounts_compromised, unique_recovered)``.
    Duplicate surfaces in the stream are skipped — a session tries
    each string once (engine streams are already deduplicated; corpus
    heads and legacy streams may not be).
    """
    compromised = 0
    recovered = 0
    seen = set()
    tried = 0
    for guess, _ in guesses:
        if guess in seen:
            continue
        seen.add(guess)
        tried += 1
        hits = accounts.count(guess)
        if hits:
            compromised += hits
            recovered += 1
        if tried >= budget:
            break
    telemetry = obs.get()
    if telemetry.enabled:
        telemetry.incr_many([
            ("attack.simulate.guesses", tried),
            ("attack.simulate.compromised", compromised),
        ])
    return tried, compromised, recovered


@dataclass(frozen=True)
class AttackOutcome:
    """Result of one simulated attack."""

    attack: str
    guesses_per_account: int
    accounts_total: int
    accounts_compromised: int
    unique_passwords_recovered: int

    @property
    def compromise_rate(self) -> float:
        return self.accounts_compromised / self.accounts_total

    def summary(self) -> str:
        return (
            f"{self.attack}: {self.accounts_compromised:,}/"
            f"{self.accounts_total:,} accounts "
            f"({self.compromise_rate:.2%}) with "
            f"{self.guesses_per_account:,} guesses/account"
        )


@dataclass(frozen=True)
class LockoutPolicy:
    """Online-defence knobs (Sec. II-A / NIST SP-800-63).

    Attributes:
        attempts_per_window: failed logins allowed per account per
            window (NIST example: 100 per 30 days).
        windows: how many windows the attack campaign spans.
    """

    attempts_per_window: int = 100
    windows: int = 1

    def __post_init__(self) -> None:
        if self.attempts_per_window < 1:
            raise ValueError("attempts_per_window must be positive")
        if self.windows < 1:
            raise ValueError("windows must be positive")

    @property
    def total_attempts(self) -> int:
        return self.attempts_per_window * self.windows


class OnlineAttack:
    """Trawling online guessing under a lockout policy.

    The attacker sends the same top guesses to every account; each
    account only tolerates ``policy.total_attempts`` wrong guesses.

    >>> corpus = PasswordCorpus(["123456"] * 6 + ["rare-one"] * 1)
    >>> attack = OnlineAttack(LockoutPolicy(attempts_per_window=1))
    >>> outcome = attack.run(iter([("123456", 0.9)]), corpus)
    >>> outcome.accounts_compromised
    6
    """

    def __init__(self, policy: Optional[LockoutPolicy] = None) -> None:
        self.policy = policy or LockoutPolicy()

    def run(self, guesses: Iterable[Tuple[str, float]],
            accounts: PasswordCorpus) -> AttackOutcome:
        if accounts.total == 0:
            raise ValueError("no accounts to attack")
        budget = self.policy.total_attempts
        tried, compromised, recovered = _run_guessing_session(
            guesses, accounts, budget
        )
        return AttackOutcome(
            attack=f"online (lockout {self.policy.attempts_per_window}"
                   f" x {self.policy.windows})",
            guesses_per_account=min(tried, budget),
            accounts_total=accounts.total,
            accounts_compromised=compromised,
            unique_passwords_recovered=recovered,
        )


@dataclass(frozen=True)
class HashFunctionProfile:
    """Offline hashing-cost model (footnote 5 of the paper).

    ``rate`` is hashes/second on the attacker's rig; dedicated
    GPU/FPGA hardware pushes fast hashes "orders of magnitude higher
    than expected" (Sec. I, ref [25]).
    """

    name: str
    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")


#: Representative rates (order-of-magnitude, single commodity GPU).
HASH_PROFILES = {
    "plaintext": HashFunctionProfile("plaintext", float("inf")),
    "md5": HashFunctionProfile("md5", 1e10),
    "sha256": HashFunctionProfile("sha256", 1e9),
    "bcrypt": HashFunctionProfile("bcrypt", 1e4),
    "scrypt": HashFunctionProfile("scrypt", 1e3),
}


class OfflineAttack:
    """Trawling offline guessing against a (salted-)hash file.

    Salting forces per-account hashing, so the per-account guess
    budget is ``rate * seconds / accounts``; an unsalted file lets one
    hash test every account at once (``64% of leaked datasets are in
    clear-text or unsalted MD5`` — the paper's footnote 5), so the
    budget is ``rate * seconds`` regardless of account count.
    """

    def __init__(self, hash_profile: HashFunctionProfile,
                 seconds: float = 24 * 3600.0,
                 salted: bool = True,
                 max_stream_guesses: int = 1_000_000) -> None:
        if seconds <= 0:
            raise ValueError("seconds must be positive")
        if max_stream_guesses < 1:
            raise ValueError("max_stream_guesses must be positive")
        self.hash_profile = hash_profile
        self.seconds = seconds
        self.salted = salted
        #: Simulation cap: model guess streams are effectively
        #: unbounded, so runs stop at min(hash budget, this cap).
        #: Raise it for deeper (slower) simulations.
        self.max_stream_guesses = max_stream_guesses

    def guess_budget(self, account_count: int) -> int:
        """Guesses per account the hardware affords."""
        if account_count < 1:
            raise ValueError("account_count must be positive")
        if self.hash_profile.rate == float("inf"):
            return 10 ** 12  # plaintext: effectively unbounded
        total_hashes = self.hash_profile.rate * self.seconds
        if self.salted:
            total_hashes /= account_count
        return max(1, int(total_hashes))

    def run(self, guesses: Iterable[Tuple[str, float]],
            accounts: PasswordCorpus) -> AttackOutcome:
        if accounts.total == 0:
            raise ValueError("no accounts to attack")
        budget = min(
            self.guess_budget(accounts.total), self.max_stream_guesses
        )
        tried, compromised, recovered = _run_guessing_session(
            guesses, accounts, budget
        )
        salt_text = "salted" if self.salted else "unsalted"
        return AttackOutcome(
            attack=f"offline ({self.hash_profile.name}, {salt_text}, "
                   f"{self.seconds / 3600:.0f}h)",
            guesses_per_account=min(tried, budget),
            accounts_total=accounts.total,
            accounts_compromised=compromised,
            unique_passwords_recovered=recovered,
        )


def head_guess_stream(corpus: PasswordCorpus,
                      limit: Optional[int] = None
                      ) -> Iterator[Tuple[str, float]]:
    """A guess stream from a training corpus's popularity head —
    the classic wordlist attacker, for baselining model streams."""
    total = corpus.total
    for index, (password, count) in enumerate(corpus.most_common(limit)):
        yield password, count / total
