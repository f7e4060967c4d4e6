#!/usr/bin/env python3
"""Quickstart — train fuzzyPSM and measure a few passwords.

The minimal end-to-end flow of the public API:

1. get a *base dictionary* (passwords from a less sensitive service)
   and a *training dictionary* (passwords from a sensitive service) —
   here both are synthetic stand-ins calibrated to the paper's
   published corpus statistics;
2. train the meter;
3. measure passwords (higher probability = weaker password);
4. accept a password to exercise the adaptive update phase.

Run:  python examples/quickstart.py
"""

from repro import FuzzyPSM, SyntheticEcosystem

ecosystem = SyntheticEcosystem(seed=42)

# Rockyou plays the weak-base-dictionary role for English services,
# exactly as in the paper's Table XI.
base = ecosystem.generate("rockyou", total=50_000)
training = ecosystem.generate("yahoo", total=10_000)

print(f"base dictionary : {base.name}, {base.unique:,} unique passwords")
print(f"training set    : {training.name}, {training.total:,} entries")

meter = FuzzyPSM.train(
    base_dictionary=base.unique_passwords(),
    training=list(training.items()),
)

print("\npassword measurements (higher probability = weaker):")
candidates = [
    "123456",          # the universal head of every leak
    "password",        # dictionary word
    "Password1",       # capitalized + digit: barely better
    "p@ssw0rd",        # leet: also barely better
    "sunshine99",      # word + digits
    "gT7#qLw9!xZ2",    # actually strong
]
for password in candidates:
    probability = meter.probability(password)
    bits = meter.entropy(password)
    bits_text = f"{bits:6.1f} bits" if probability else "   inf bits"
    print(f"  {password:15s} p = {probability:11.3e}   {bits_text}")

print("\nwhy is p@ssw0rd weak?  the fuzzy parse explains:")
for line in meter.explain("p@ssw0rd").lines():
    print("  " + line)

# The update phase: the meter adapts as users register new passwords.
trend = "eras-tour-2026"
print(f"\nadaptive update: {trend!r}")
print(f"  before: p = {meter.probability(trend):.3e}")
for _ in range(25):
    meter.update(trend)
print(f"  after 25 registrations: p = {meter.probability(trend):.3e}")
print("  -> the meter now warns the 26th user picking the same fad.")
