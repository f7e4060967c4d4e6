#!/usr/bin/env python3
"""Registration flow — bucketed real-time feedback at signup.

Models how a web service would actually deploy fuzzyPSM (paper
Sec. II-B: deployed meters group raw probabilities into a few labelled
buckets, like Google's weak/fair/good/strong in Fig. 1):

1. train fuzzyPSM on a same-language, same-service-type leak;
2. calibrate bucket thresholds so each quartile of *real* user
   passwords fills one bucket;
3. run a mandatory policy: reject anything in the weakest bucket;
4. feed accepted passwords back through the update phase so the meter
   tracks the site's own drifting distribution.

Run:  python examples/registration_flow.py
"""

from repro import (
    BucketedMeter,
    FuzzyPSM,
    SyntheticEcosystem,
    calibrate_scale,
)

ecosystem = SyntheticEcosystem(seed=7)
base = ecosystem.generate("rockyou", total=50_000)
leak = ecosystem.generate("phpbb", total=10_000)

meter = FuzzyPSM.train(
    base_dictionary=base.unique_passwords(),
    training=list(leak.items()),
)

# Calibrate: each label covers a quartile of real leaked passwords.
scale = calibrate_scale(meter, leak)
bucketed = BucketedMeter(meter, scale)
print("calibrated bucket thresholds (bits):",
      [f"{t:.1f}" for t in scale.thresholds])

SIGNUPS = [
    ("alice", "123456"),
    ("bob", "password"),
    ("carol", "Password1"),
    ("dave", "sunshine99"),
    ("erin", "correct-horse-battery"),
    ("frank", "gT7#qLw9!xZ2"),
    ("grace", "123456"),          # same fad as alice
]

print("\nsimulated signups (mandatory meter: 'weak' is rejected):")
accepted = 0
for user, password in SIGNUPS:
    feedback = bucketed.feedback(password)
    verdict = "ACCEPT" if feedback.accepted else "REJECT"
    print(
        f"  {user:6s} {password:22s} -> {feedback.label:7s}"
        f" ({feedback.entropy_bits:5.1f} bits)  {verdict}"
    )
    if feedback.accepted:
        accepted += 1
        # The update phase: accepted passwords shift the distribution.
        meter.update(password)

print(f"\n{accepted}/{len(SIGNUPS)} signups accepted")

# Show the adaptivity: a password that keeps getting accepted drifts
# towards "weak" as it becomes popular on this site.
fad = "sunshine99"
before = bucketed.label(fad)
for _ in range(200):
    meter.update(fad)
after = bucketed.label(fad)
print(f"\nadaptive drift for {fad!r}: {before} -> {after} "
      "after 200 more users pick it")
