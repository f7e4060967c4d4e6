"""Toy-scale self-test of the benchmark.

    python3 perfbench/selftest.py

First every workload runs end to end through ``run.py`` at
``--scale 0.05``, with tracing off and on, and must print a correct
result holding exactly the metrics BENCHMARK.json names.  Then one
fault of each kind the output checks exist for is planted in real
toy-scale outputs, and the matching check must catch it: a perturbed
score (offline and served), a mislabelled epoch (counted as stale) and
a duplicate guess.  The exit status is 0 only when all of this holds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List

import analyst  # puts the program's source on sys.path
import checks
import corpora
import run
import serving
from corpora import ACCEPT, CHECK
from repro.persistence import load_meter

SCALE = 0.05
SEED = 1
#: ``--seconds`` of the end-to-end toy runs.
SECONDS = 6
#: Serve phases of the planted-fault runs: about 20 accepts.
OPEN_SECONDS = 4.0
CLOSED_SECONDS = 1.0


class SelfTestFailure(Exception):
    """A benchmark check that should have fired, or passed, did not."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def end_to_end(spec: Dict) -> None:
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", workload, "--seed", str(SEED),
                 "--seconds", str(SECONDS), "--trace", str(trace),
                 "--scale", str(SCALE)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170,
            )
            label = f"{workload} --trace {trace}"
            require(done.returncode == 0,
                    f"{label} exited {done.returncode}:\n{done.stderr}")
            result = json.loads(done.stdout.splitlines()[-1])
            wanted = {m["name"]
                      for m in spec["per_layer" if trace else "end_to_end"]}
            require(result["correct"] and result["failed"] == 0,
                    f"{label} reported a failure: {result}")
            require(set(result["metrics"]) == wanted,
                    f"{label} printed metrics {sorted(result['metrics'])}")
            print(f"selftest: {label} ran end to end")


def offline_faults(workload: str, work: str) -> None:
    base = analyst.read_lines(os.path.join(work, "base.txt"))
    stream = analyst.read_lines(os.path.join(work, "stream.txt"))
    outputs = analyst.run_round(
        work, base, stream, analyst.UNTRACED, check=True, attack=True,
        model_name=analyst.MODEL,
    )["outputs"]

    def faults(**planted) -> List[str]:
        return analyst.check_outputs(stream, SEED,
                                     **dict(outputs, **planted))["faults"]

    require(faults() == [], f"clean outputs failed: {faults()}")
    scores = list(outputs["scores"])
    scores[len(scores) // 2] = math.nextafter(scores[len(scores) // 2],
                                              math.inf)
    found = faults(scores=scores)
    require(any("differ from the trained meter's" in f for f in found),
            f"a perturbed reloaded score passed: {found}")
    # The same wrong kernel in the trained and the reloaded meter passes
    # the reload check; the reference path must catch it.
    wrong = [math.nextafter(score, math.inf) for score in outputs["scores"]]
    found = faults(scores=wrong, trained=wrong)
    require(any("differ from the reference path" in f for f in found),
            f"perturbed kernel scores passed: {found}")
    guesses = list(outputs["guesses"])
    guesses.insert(11, guesses[10])
    found = faults(guesses=guesses)
    require(any("duplicate guess" in f for f in found),
            f"a duplicate guess passed: {found}")
    print(f"selftest: {workload} offline checks caught a perturbed "
          "reloaded score, "
          "a perturbed kernel and a duplicate guess")


def _planted(records: List[serving.Record], position: int,
             span=None, **answer) -> List[serving.Record]:
    """A copy of ``records`` with one answer's fields replaced and,
    given ``span``, its ``(sent, done)`` times moved."""
    original = records[position]
    clone = serving.Record(original.kind, original.password)
    for slot in serving.Record.__slots__:
        setattr(clone, slot, getattr(original, slot))
    clone.body = json.dumps(dict(json.loads(original.body), **answer)).encode()
    if span is not None:
        clone.sent, clone.done = span
    return records[:position] + [clone] + records[position + 1:]


def serve_faults(workload: str, work: str, inputs: Dict) -> None:
    model = os.path.join(work, analyst.MODEL)
    with open(os.path.join(work, "serve.log"), "w",
              encoding="utf-8") as log:
        records = serving.launch(run.ROOT, model, inputs, OPEN_SECONDS,
                                 CLOSED_SECONDS, log)["records"]

    def verify(planted: List[serving.Record]) -> Dict:
        return checks.verify_serve(load_meter(model), planted)

    clean = verify(records)
    require(clean["failed"] == 0, f"clean serve run failed: {clean}")
    answers = [json.loads(r.body) for r in records]
    accepts = [(r.sent, r.done, answer["epoch"])
               for r, answer in zip(records, answers) if r.kind == ACCEPT]
    require(len(accepts) >= 2, f"only {len(accepts)} accepts were sent")
    last = max(epoch for _, _, epoch in accepts)
    # records[0] is the set-up probe: sent before any /accept.
    probe = answers[0]
    require(records[0].kind == CHECK and probe["epoch"] < accepts[0][2],
            "the first record is not a check before every accept")
    nudged = math.nextafter(probe["probability"], math.inf)

    planted = verify(_planted(records, 0, probability=nudged))
    require(planted["failed"] == 1,
            f"a perturbed /check passed: {planted}")
    # Moved into an accept's time window and relabelled with its epoch,
    # as if the update had raced the scoring, it must still fail.
    sent, done, epoch = accepts[0]
    planted = verify(_planted(records, 0, span=(sent, done), epoch=epoch,
                              probability=nudged))
    require(planted["failed"] == 1,
            f"a perturbed /check beside an accept passed: {planted}")

    # A password the grammar cannot derive scores 0.0 at every epoch,
    # so only a positive score can show which epoch it came from.
    unjudged = set(clean["stale_at"])
    position = next(
        p for p, (r, answer) in enumerate(zip(records, answers))
        if r.kind == CHECK and p not in unjudged and answer["epoch"] < last
        and answer["probability"] > 0.0
    )
    planted = verify(_planted(records, position,
                              epoch=answers[position]["epoch"] + 1))
    require(planted["failed"] == 0
            and planted["stale"] == clean["stale"] + 1,
            f"a mislabelled epoch was not counted as stale: {planted}")
    print(f"selftest: {workload} serve checks failed perturbed /check "
          "scores and counted a mislabelled epoch as stale")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    scratch = os.path.join(run.ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    try:
        end_to_end(spec)
        for workload in run.WORKLOADS:
            work = tempfile.mkdtemp(prefix=f"selftest-{workload}-",
                                    dir=scratch)
            inputs = corpora.build(workload, SEED, SCALE, work,
                                   run.OPEN_RATE, OPEN_SECONDS,
                                   CLOSED_SECONDS)
            offline_faults(workload, work)
            serve_faults(workload, work, inputs)
            shutil.rmtree(work)
    except SelfTestFailure as failure:
        print(f"selftest: FAILED: {failure}", file=sys.stderr)
        return 1
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
