"""Output checks for both user paths.

Offline, the reloaded FPSMBIN1 model must score the whole stream bit
for bit like the meter that was trained, a fixed sample of bulk scores
must equal the reference ``FuzzyGrammar.derivation_probability`` path,
and the guess stream must be duplicate-free and never increase.

Serve, every ``/check`` answer is replayed on a local meter that
applies the acknowledged ``/accept`` calls in the order of the epochs
they returned.  An answer whose probability belongs to an earlier
epoch than the one it reports is *stale*: the server reads its epoch
after scoring, so an ``/accept`` handled in between relabels an old
score.  Stale answers are counted, not failed.  An answer that matches
no epoch fails.
"""

from __future__ import annotations

import json
import random
from array import array
from typing import Dict, List, Sequence, Tuple

from corpora import ACCEPT

#: Epochs an answer may trail the epoch it reports and still count as
#: stale rather than failed.
LOOKBACK = 3


def same_bits(left: float, right: float) -> bool:
    return left.hex() == right.hex()


def score_mismatches(expected: Sequence[float],
                     actual: Sequence[float]) -> int:
    """Positions where two score lists differ in any bit."""
    if len(expected) != len(actual):
        return max(len(expected), len(actual))
    if array("d", expected).tobytes() == array("d", actual).tobytes():
        return 0
    return sum(
        1 for left, right in zip(expected, actual)
        if not same_bits(left, right)
    )


def reference_mismatches(meter, stream: Sequence[str],
                         scores: Sequence[float], sample: int,
                         seed: int) -> Tuple[int, int]:
    """``(checked, mismatched)`` over a seeded sample of bulk scores."""
    positions = random.Random(seed).sample(
        range(len(stream)), min(sample, len(stream))
    )
    grammar, parser = meter.grammar, meter.parser
    mismatched = 0
    for position in positions:
        derivation = parser.parse(stream[position]).to_derivation()
        if not same_bits(grammar.derivation_probability(derivation),
                         scores[position]):
            mismatched += 1
    return len(positions), mismatched


def guess_faults(guesses: Sequence[Tuple[str, float]]) -> List[str]:
    """Duplicates and rises in a guess stream that must descend."""
    faults: List[str] = []
    seen = set()
    previous = float("inf")
    for rank, (surface, probability) in enumerate(guesses):
        if surface in seen:
            faults.append(f"duplicate guess {surface!r} at rank {rank}")
        seen.add(surface)
        if probability > previous:
            faults.append(f"guess probability rises at rank {rank}")
        previous = probability
    return faults


def verify_serve(meter, records) -> Dict:
    """Judge every request by replaying the accepts on ``meter``.

    ``meter`` is a fresh load of the served model and is updated in
    place.  Returns the numbers of checks, accepts, stale and failed
    answers, the positions in ``records`` of the stale ones, and notes
    on the first failures.
    """
    notes: List[str] = []
    failed = 0
    accepts: Dict[int, str] = {}
    by_epoch: Dict[int, List[list]] = {}
    checks: List[list] = []
    for position, record in enumerate(records):
        if not record.ok:
            failed += 1
            notes.append(f"/{record.kind} {record.password!r} answered "
                         f"{record.status or 'nothing'}: "
                         f"{record.body[:300].decode(errors='replace')}")
            continue
        answer = json.loads(record.body)
        if answer.get("password") != record.password:
            failed += 1
            notes.append(f"answer for {record.password!r} names "
                         f"{answer.get('password')!r}")
            continue
        epoch = answer["epoch"]
        if record.kind == ACCEPT:
            if epoch in accepts:
                failed += 1
                notes.append(f"two accepts returned epoch {epoch}")
            else:
                accepts[epoch] = record.password
            continue
        # Reported epoch, probability, password, position, then whether
        # the score matches the reported epoch and whether it matches an
        # earlier one.
        check = [epoch, float(answer["probability"]), record.password,
                 position, False, False]
        checks.append(check)
        by_epoch.setdefault(epoch, []).append(check)
    grammar = meter.grammar
    first = last = grammar.epoch
    while last + 1 in accepts:
        last += 1
    beyond = len(accepts) - (last - first)
    if beyond:
        failed += beyond
        notes.append(f"{beyond} accepts lie past a gap after epoch {last}")
    derivations: Dict[str, object] = {}
    for epoch in range(first, last + 1):
        if epoch > first:
            meter.update(accepts[epoch])
        if grammar.epoch != epoch:
            raise RuntimeError(
                f"replay reached epoch {grammar.epoch}, expected {epoch}"
            )
        for reported in range(epoch, epoch + LOOKBACK + 1):
            for check in by_epoch.get(reported, ()):
                derivation = derivations.get(check[2])
                if derivation is None:
                    derivation = derivations[check[2]] = (
                        meter.parse(check[2]).to_derivation()
                    )
                if same_bits(grammar.derivation_probability(derivation),
                             check[1]):
                    check[4 if reported == epoch else 5] = True
    stale_at = [check[3] for check in checks if not check[4] and check[5]]
    wrong = [check for check in checks if not check[4] and not check[5]]
    notes.extend(
        f"/check {password!r} reported epoch {epoch} with {probability!r},"
        " which matches no epoch"
        for epoch, probability, password, *_ in wrong[:5]
    )
    return {
        "checks": len(checks),
        "accepts": len(accepts),
        "stale": len(stale_at),
        "stale_at": stale_at,
        "failed": failed + len(wrong),
        "notes": notes[:10],
    }
