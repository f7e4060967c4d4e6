"""The offline analyst path, run by ``run.py`` in a child process.

    python3 perfbench/analyst.py --work DIR --trace 0|1 --seed N

The process reads one command a line from stdin.  ``round`` runs one
round and answers with one JSON line; ``finish`` ends the run and
prints the summary as the last stdout line.  ``run.py`` sends its
rounds between its serve launches, so they fall at different moments
of the run.

A round trains streamed from ``DIR/corpus.txt`` and saves the model as
FPSMBIN1 (timed for ``train_eps``), then reloads it and bulk-scores
``DIR/stream.txt`` (``score_pps``).  Loading the model until the first
scored block returns is the offline set-up time (``setup_s``).  The
first round also enumerates guesses and compiles masks the way ``repro
attack masks`` does (``guess_gps``), saves the model the serve phases
load, and puts its outputs through the offline output checks.  With
``--trace 1``, ``finish`` first runs a traced round, then one more
untraced round; the traced round's spans and ``repro.obs`` counters
give the per-layer numbers.

Each stage is timed in segments: the trainer's set-up, a chunk pulled
and trained, its finishing work, the save, the set-up, a scored block.
The host probe (probe.py) runs before each segment, outside its time.
A round's stage time is divided by the round's host factor, the median
of its probes over ``REFERENCE_SECONDS``; a throughput is the stage's
work over the median of those scaled times over the rounds, and
``setup_s`` is the median of the scaled set-ups.  The medians as
measured are reported beside them.  Over five seeds on the host this
benchmark was built on, the scaled numbers spread 0.03 to 0.11 (third
quartile minus first, over the median) where the measured ones spread
up to 0.17, and a whole-round time followed the host's drift.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro import obs  # noqa: E402
from repro.attacks import compile_mask_set, compile_rules  # noqa: E402
from repro.core.meter import FuzzyPSM  # noqa: E402
from repro.datasets.loaders import stream_corpus_chunks  # noqa: E402
from repro.persistence import load_meter, save_meter  # noqa: E402

import checks  # noqa: E402
from probe import REFERENCE_SECONDS, probe  # noqa: E402
from spans import Tracer  # noqa: E402

#: Passwords per ``probability_many`` call.  The stream is scored the
#: way a reader working through a large file in blocks would, so the
#: parse cache carries popular passwords from one block to the next.
SCORE_BATCH = 4_096
#: Guesses enumerated before mask compilation.
GUESSES = 10_000
#: Bulk scores compared with the reference path in the first round.
REFERENCE_SAMPLE = 2_000
#: Frozen-grammar rebuilds timed after single updates (traced run).
REBUILDS = 5
#: Stage timings compared between traced and untraced rounds.
STAGES = ("train_s", "load_s", "first_s", "score_s")
#: The model file the first round saves; later rounds save elsewhere,
#: so the served model is the one the checks replay.
MODEL = "model.fpsm"
ROUND_MODEL = "round.fpsm"

UNTRACED = Tracer("untraced", False)


class Segments:
    """Timed segments of one stage.

    Given a ``probes`` list, the host probe runs before each segment,
    outside its time, and its seconds go to that list.
    """

    def __init__(self, probes: Optional[List[float]]) -> None:
        self.probes = probes
        self.seconds: List[float] = []
        self.started = 0.0

    def begin(self) -> None:
        if self.probes is not None:
            self.probes.append(probe())
        self.started = time.perf_counter()

    def end(self) -> None:
        self.seconds.append(time.perf_counter() - self.started)

    def next(self) -> None:
        """End the running segment and begin the next."""
        self.end()
        self.begin()


def read_lines(path: str) -> List[str]:
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines()


def _session(enabled: bool):
    """A scoped ``repro.obs`` collecting backend, or nothing."""
    return obs.session() if enabled else contextlib.nullcontext()


def _blocks(stream: List[str]) -> List[List[str]]:
    size = min(SCORE_BATCH, max(1, len(stream) // 4))
    return [stream[at:at + size] for at in range(0, len(stream), size)]


def run_round(work: str, base: List[str], stream: List[str],
              tracer: Tracer, check: bool, attack: bool = False,
              model_name: str = ROUND_MODEL) -> Dict:
    """One pass over the analyst stages; see the module docstring.

    ``segments`` maps each timed stage to its segment seconds.
    ``attack`` adds the guess stage.  With
    ``check`` the result keeps, under ``"outputs"``, what
    :func:`check_outputs` needs: the trained meter's scores, the
    reloaded meter, its scores and the guesses.
    """
    traced = tracer.enabled
    corpus_path = os.path.join(work, "corpus.txt")
    model_path = os.path.join(work, model_name)
    out: Dict = {"entries": 0}
    # The traced round runs no probe, so none lands inside a span.
    probes: Optional[List[float]] = None if traced else []

    with _session(traced) as train_telemetry:
        train = Segments(probes)

        def counted(chunks: Iterable[list]) -> Iterator[list]:
            # Each pull ends a segment: first the trainer's set-up,
            # then the chunk before it, read and trained.
            train.next()
            for chunk in chunks:
                out["entries"] += len(chunk)
                yield chunk
                train.next()

        train.begin()
        with tracer.span("training.train_streaming"):
            meter = FuzzyPSM.train_streaming(base, counted(tracer.each_next(
                "loaders.next", stream_corpus_chunks(corpus_path)
            )))
        train.next()
        with tracer.span("persistence.save"):
            save_meter(meter, model_path, fmt="binary")
        train.end()
    out["train_s"] = sum(train.seconds)
    blocks = _blocks(stream)
    trained = (
        [s for block in blocks for s in meter.probability_many(block)]
        if check else []
    )
    del meter

    with _session(traced) as score_telemetry:
        # The first block pays the lazy matcher compile and the frozen
        # grammar build; with the load it is the set-up, not scoring.
        setup = Segments(probes)
        setup.begin()
        with tracer.span("persistence.load"):
            loaded = load_meter(model_path)
        out["load_s"] = time.perf_counter() - setup.started
        with tracer.span("meter.probability_many"):
            scores = loaded.probability_many(blocks[0])
        setup.end()
        score = Segments(probes)
        for block in blocks[1:]:
            score.begin()
            with tracer.span("meter.probability_many"):
                scores.extend(loaded.probability_many(block))
            score.end()
    out["first_s"] = setup.seconds[0] - out["load_s"]
    out["score_s"] = sum(score.seconds)
    out["scored"] = len(stream) - len(blocks[0])
    out["segments"] = {"train": train.seconds, "score": score.seconds}
    out["probes"] = probes

    guesses: list = []
    if attack:
        with _session(traced):
            start = time.perf_counter()
            with tracer.span("engine.build"):
                engine = loaded.attack_engine()
            with tracer.span("engine.enumerate"):
                guesses = list(engine.guesses(limit=GUESSES))
            with tracer.span("masks.compile"):
                compile_mask_set(
                    guesses, rules=compile_rules(loaded.frozen_grammar()),
                    source=loaded.name,
                )
            out["guess_s"] = time.perf_counter() - start
        out["guesses"] = len(guesses)

    if check:
        out["outputs"] = {"trained": trained, "loaded": loaded,
                          "scores": scores, "guesses": guesses}
    if traced:
        out["telemetry"] = (train_telemetry, score_telemetry)
        out["meter"] = loaded
    return out


def check_outputs(stream: List[str], seed: int, trained: List[float],
                  loaded, scores: List[float], guesses) -> Dict:
    """The offline output checks over one round's outputs."""
    faults: List[str] = []
    differing = checks.score_mismatches(trained, scores)
    if differing:
        faults.append(f"{differing} scores of the reloaded model differ "
                      "from the trained meter's")
    sampled, wrong = checks.reference_mismatches(
        loaded, stream, scores, REFERENCE_SAMPLE, seed
    )
    if wrong:
        faults.append(f"{wrong} of {sampled} sampled bulk scores differ "
                      "from the reference path")
    guess_faults = checks.guess_faults(guesses)
    faults.extend(guess_faults)
    return {
        "attempted": len(stream) + sampled + len(guesses),
        "failed": differing + wrong + len(guess_faults),
        "faults": faults,
    }


def _hit_ratio(telemetry) -> float:
    hits = telemetry.counter("parser.cache.hit")
    misses = telemetry.counter("parser.cache.miss")
    return hits / (hits + misses) if hits + misses else 0.0


def _timer(telemetry, name: str) -> float:
    histogram = telemetry.histogram(name)
    return histogram.total if histogram is not None else 0.0


def _layers(work: str, stream: List[str], untraced: List[Dict],
            traced: Dict, tracer: Tracer) -> Tuple[Dict, Dict]:
    """Per-layer numbers of the traced round, plus parse-rule counts."""
    train, score = traced["telemetry"]
    meter = traced["meter"]
    rebuilds = []
    for text in stream[:REBUILDS]:
        meter.update(text)
        start = time.perf_counter()
        with tracer.span("frozen.rebuild"):
            meter.frozen_grammar()
        rebuilds.append(time.perf_counter() - start)
    baseline = statistics.median(
        sum(entry[key] for key in STAGES) for entry in untraced
    )
    scores = score.counter("meter.batch.scores")
    layers = {
        "loaders.read_s": tracer.total("loaders.next"),
        "loaders.entries": traced["entries"],
        "training.self_s": tracer.self_time("training.train_streaming"),
        "parser.train_hit_ratio": _hit_ratio(train),
        "parser.score_hit_ratio": _hit_ratio(score),
        "parser.evictions": score.counter("parser.cache.evict"),
        "meter.score_s": tracer.total("meter.probability_many"),
        "meter.distinct_share": (
            score.counter("meter.batch.distinct") / scores if scores else 0.0
        ),
        "compiled_trie.compile_s": _timer(score, "trie.compile.seconds"),
        "frozen.build_s": _timer(score, "meter.frozen.build.seconds"),
        "frozen.rebuild_s": statistics.median(rebuilds),
        "persistence.save_s": tracer.total("persistence.save"),
        "persistence.load_s": tracer.total("persistence.load"),
        "persistence.model_bytes": os.path.getsize(
            os.path.join(work, MODEL)
        ),
        "engine.build_s": tracer.total("engine.build"),
        "engine.enumerate_s": tracer.total("engine.enumerate"),
        "masks.compile_s": tracer.total("masks.compile"),
        "obs.overhead_ratio": sum(traced[key] for key in STAGES) / baseline,
    }
    rules = {
        name: train.counter(name) for name in (
            "parser.segment.trie_hit", "parser.segment.fallback",
            "parser.rule.capitalization", "parser.rule.leet",
        )
    }
    return layers, rules


def summarise(rounds: List[Dict], verdict: Dict, layers, rules) -> Dict:
    """The run's offline numbers; see the module docstring."""
    first = rounds[0]
    factors = [statistics.median(r["probes"]) / REFERENCE_SECONDS
               for r in rounds]
    rates, medians = {}, {}
    for name, stage, done in (("train_eps", "train", first["entries"]),
                              ("score_pps", "score", first["scored"])):
        rates[name] = done / statistics.median(
            sum(r["segments"][stage]) / factor
            for r, factor in zip(rounds, factors)
        )
        medians[name] = statistics.median(
            done / sum(r["segments"][stage]) for r in rounds
        )
    return {
        "rounds": len(rounds),
        "setup_s": statistics.median(
            (r["load_s"] + r["first_s"]) / factor
            for r, factor in zip(rounds, factors)
        ),
        "setup_s.median": statistics.median(r["load_s"] + r["first_s"]
                                            for r in rounds),
        **rates,
        "medians": medians,
        "host_factor": statistics.median(
            p for r in rounds for p in r["probes"]) / REFERENCE_SECONDS,
        "guess_gps": first["guesses"] / first["guess_s"],
        "segments": {stage: len(first["segments"][stage])
                     for stage in ("train", "score")},
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "faults": verdict["faults"][:10],
        "stages": [{key: r[key] for key in STAGES} for r in rounds],
        "layers": layers,
        "parse_rules": rules,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Offline analyst path of the fuzzyPSM benchmark."
    )
    parser.add_argument("--work", required=True,
                        help="directory with base/corpus/stream .txt")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the reference-path sample")
    args = parser.parse_args(argv)
    base = read_lines(os.path.join(args.work, "base.txt"))
    stream = read_lines(os.path.join(args.work, "stream.txt"))

    def one_round(tracer: Tracer, check: bool = False) -> Dict:
        # A round leaves its meters behind as cyclic garbage, which
        # slowed the next round's training by up to 2x; collecting it
        # outside the timed stages gives each round a fresh heap.
        gc.collect()
        return run_round(args.work, base, stream, tracer, check,
                         attack=check or tracer.enabled,
                         model_name=MODEL if check else ROUND_MODEL)

    rounds: List[Dict] = []
    verdict: Dict = {}
    for line in sys.stdin:
        command = line.strip()
        if command == "finish":
            break
        if command != "round":
            raise SystemExit(f"analyst.py: unknown command {command!r}")
        rounds.append(one_round(UNTRACED, check=not rounds))
        if len(rounds) == 1:
            verdict = check_outputs(stream, args.seed,
                                    **rounds[0].pop("outputs"))
        print(json.dumps({"round": len(rounds)}), flush=True)
    if not rounds:
        raise SystemExit("analyst.py: finished before any round")
    layers = rules = None
    if args.trace:
        tracer = Tracer(f"analyst-{os.getpid()}", True)
        traced = one_round(tracer)
        # One more untraced round after the traced one, so the overhead
        # ratio does not credit tracing with the first round's warm-up.
        rounds.append(one_round(UNTRACED))
        layers, rules = _layers(args.work, stream, rounds, traced, tracer)
        tracer.dump(os.path.join(args.work, "spans-analyst.json"))
    print(json.dumps(summarise(rounds, verdict, layers, rules)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
