"""Timing claims of Sec. IV — the real pytest-benchmark micro-benches.

The paper reports, on a 3.60 GHz i7 PC:

* measuring one password "takes less than 2ms ... suitable for
  real-time feedbacks" (less than 30ms per derivation in the worst
  grammar);
* the training phase takes "roughly 10 * l seconds" for a training
  set of l million passwords — i.e. about 10 microseconds/password.

These benches time the same operations on the bench corpus and assert
only the order-of-magnitude budgets (absolute hardware differs).

The performance-layer benches (word index vs pointer trie, bulk vs
per-call measuring, telemetry cost) and the training throughput
additionally persist their numbers to ``BENCH_timing.json`` at the
repo root via :func:`bench_lib.record`, so the perf trajectory is
tracked across PRs.
"""

import math
import random
import statistics
import time
from dataclasses import replace
from itertools import cycle, islice

import pytest

from repro.core.meter import FuzzyPSM
from repro.core.parser import FuzzyParser
from repro.core.training import build_base_trie
from repro.metrics.guessnumber import MonteCarloEstimator
from repro.util.leet import LEET_BY_LETTER

from bench_lib import SMOKE, emit, record
from tests.conftest import pointer_parser

#: Interleaved pointer/index repeats of the full-parse comparisons.
PARSE_REPEATS = 7

#: Timed training runs of the throughput bench.
TRAINING_REPEATS = 5

#: Interleaved noop/enabled repeats per telemetry stream.
TELEMETRY_REPEATS = 9

#: Shortest timed run of the telemetry bench: a run scores its stream
#: on as many fresh meters back to back as this takes, so one slow
#: spell of the host cannot move a median by much.
TELEMETRY_MIN_SECONDS = 0.5

#: Parse-cache capacity of the telemetry bench's cache-miss stream,
#: which holds five times as many unseen passwords.
TELEMETRY_MISS_CACHE = 4_096


@pytest.fixture(scope="module")
def meter(corpora, csdn_quarters):
    train, _ = csdn_quarters
    return FuzzyPSM.train(
        base_dictionary=corpora["tianya"].unique_passwords(),
        training=list(train.items()),
    )


@pytest.fixture(scope="module")
def probe_passwords(csdn_quarters):
    _, test = csdn_quarters
    head = [pw for pw, _ in test.most_common(50)]
    tail = [pw for pw, c in test.most_common() if c == 1][:50]
    return head + tail


def test_timing_measure_single_password(benchmark, meter,
                                        probe_passwords, capsys):
    passwords = probe_passwords
    index = iter(range(10 ** 9))

    def measure_one():
        return meter.probability(
            passwords[next(index) % len(passwords)]
        )

    # pytest-benchmark sizes its rounds from the first call, which
    # would otherwise build the parser's word index: warm it first.
    measure_one()
    benchmark(measure_one)
    stats = benchmark.stats
    emit(capsys, f"(timing) one measurement: mean "
                 f"{stats['mean'] * 1e3:.4f} ms, median "
                 f"{stats['median'] * 1e3:.4f} ms over {stats['rounds']:,} "
                 f"rounds [{stats['min'] * 1e3:.4f}, "
                 f"{stats['max'] * 1e3:.4f}] (paper budget: < 2 ms)")
    record("measure_single", rounds=stats["rounds"],
           mean_ms=stats["mean"] * 1e3,
           **{f"{statistic}_ms": stats[statistic] * 1e3
              for statistic in ("median", "min", "max")})
    assert SMOKE or stats["mean"] < 0.002


def test_timing_training_throughput(benchmark, corpora, csdn_quarters,
                                    capsys):
    train, _ = csdn_quarters
    base_words = corpora["tianya"].unique_passwords()
    items = list(train.items())

    meter = benchmark.pedantic(
        lambda: FuzzyPSM.train(base_dictionary=base_words,
                               training=items),
        rounds=TRAINING_REPEATS, iterations=1,
    )
    seconds = {statistic: benchmark.stats[statistic]
               for statistic in ("median", "min", "max")}
    per_million = seconds["median"] / train.total * 1e6
    emit(
        capsys,
        f"(timing) training: {seconds['median']:.2f} s for "
        f"{train.total:,} passwords (+{len(base_words):,}-word base "
        f"trie, median of {TRAINING_REPEATS}) -> {per_million:.1f} s per "
        f"million (paper: ~10 s per million)",
    )
    record("training_serial", passwords=train.total,
           repeats=TRAINING_REPEATS, seconds_per_million=per_million,
           **{f"seconds_{statistic}": value
              for statistic, value in seconds.items()})
    assert meter.grammar.total_passwords == train.total
    # Same order of magnitude as the paper's figure (pure Python
    # against the authors' C-era constant: allow a generous 60x).
    assert SMOKE or per_million < 600


def test_timing_update_phase(benchmark, meter, capsys):
    passwords = ["brandnew1", "Password2026", "qwerty!99"]
    index = iter(range(10 ** 9))

    def accept_one():
        meter.update(passwords[next(index) % len(passwords)])

    benchmark(accept_one)
    mean_seconds = benchmark.stats["mean"]
    emit(capsys, f"(timing) one update: {mean_seconds * 1e6:.1f} us")
    # The update phase must stay interactive (well under measuring).
    assert SMOKE or mean_seconds < 0.002


def test_timing_monte_carlo_estimation(benchmark, meter, capsys):
    estimator = MonteCarloEstimator(
        meter, sample_size=5_000, rng=random.Random(0)
    )
    probabilities = [10.0 ** -k for k in range(2, 12)]
    index = iter(range(10 ** 9))

    def estimate_one():
        return estimator.guess_number(
            probabilities[next(index) % len(probabilities)]
        )

    benchmark(estimate_one)
    mean_seconds = benchmark.stats["mean"]
    emit(capsys, f"(timing) one guess-number lookup: "
                 f"{mean_seconds * 1e6:.2f} us")
    # Lookups are binary searches; they must be micro-second scale.
    assert SMOKE or mean_seconds < 0.001


# --- performance layer (word index / batch / parallel) ------------------


def test_timing_bulk_vs_single_measuring(meter, csdn_quarters, capsys):
    """``probability_many`` vs a per-call loop on an evaluation stream.

    The stream is three scoring sweeps over the test quarter *with*
    multiplicity — the shape of the corpus-evaluation workload, which
    scores the same leak once per artefact (guess-number scatter,
    cracking curve, robustness re-runs) and used to re-parse every
    repeated password from scratch each time.  The batch path parses
    each distinct password once and serves every repeat from the
    call's distinct dict.
    """
    _, test = csdn_quarters
    stream = list(test.expand()) * 3
    distinct = test.unique

    single_meter = FuzzyPSM(meter.grammar, meter.trie, meter.config)
    single_meter.probability("warmup")  # build the word index
    start = time.perf_counter()
    single = [single_meter.probability(pw) for pw in stream]
    single_seconds = time.perf_counter() - start

    bulk_meter = FuzzyPSM(meter.grammar, meter.trie, meter.config)
    bulk_meter.probability("warmup")
    start = time.perf_counter()
    bulk = bulk_meter.probability_many(stream)
    bulk_seconds = time.perf_counter() - start

    assert bulk == single  # the fast path must not change a single value
    speedup = single_seconds / bulk_seconds
    emit(
        capsys,
        f"(timing) bulk measuring: {len(stream):,} scores "
        f"({distinct:,} distinct) -- per-call {single_seconds:.2f} s, "
        f"probability_many {bulk_seconds:.2f} s -> {speedup:.1f}x",
    )
    record("measure_bulk_vs_single", stream=len(stream),
           distinct=distinct, single_seconds=single_seconds,
           bulk_seconds=bulk_seconds, speedup=speedup)
    assert SMOKE or speedup >= 2.0


def _long_base(words, rng: random.Random, count: int) -> list:
    """``count`` base words of 30-64 characters, as real leaks hold:
    bench words run together, each cut at a drawn length."""
    long_words = set()
    while len(long_words) < count:
        word = ""
        size = rng.randint(30, 64)
        while len(word) < size:
            word += rng.choice(words)
        long_words.add(word[:size])
    return sorted(long_words)


def _long_probes(words, rng: random.Random, count: int) -> list:
    """Unseen passwords over the long words: some cut short, leet
    toggled, capitalised and suffixed, some run into a second one."""
    probes = []
    for _ in range(count):
        word = rng.choice(words)
        word = word[:rng.randint(len(word) // 2, len(word))]
        chars = [
            LEET_BY_LETTER.get(ch, ch) if rng.random() < 0.2 else ch
            for ch in word
        ]
        if rng.random() < 0.3:
            chars[0] = chars[0].upper()
        text = "".join(chars) + str(rng.randrange(1000))
        if rng.random() < 0.2:
            text += rng.choice(words)[:rng.randint(3, 20)]
        probes.append(text)
    return probes


def _time_parsers(parsers: dict, probes: list) -> dict:
    """Interleaved repeats of full parses of ``probes``: per parser the
    seconds of each repeat.  Every parser must parse alike."""
    parses, timings = {}, {name: [] for name in parsers}
    for repeat in range(PARSE_REPEATS):
        # Each repeat swaps which parser goes first, so drift of the
        # host's speed hits both alike.
        for name in sorted(parsers, reverse=bool(repeat % 2)):
            parser = parsers[name]
            start = time.perf_counter()
            parses[name] = [parser.parse(pw) for pw in probes]
            timings[name].append(time.perf_counter() - start)
    assert parses["index"] == parses["pointer"]
    return timings


def test_timing_index_vs_pointer_parse(meter, csdn_quarters, capsys):
    """Full-parse wall time: the leet-canonical word index vs the
    pointer trie, over two base dictionaries.

    Neither parser keeps parses, so this isolates the matcher itself:
    a few dict probes per segment start against the pointer trie's
    search over exact and leet branches.  The bench meter's dictionary
    is scored with the test quarter's passwords; a dictionary of
    30-64-character words (real leaks hold such entries) with unseen
    passwords built from them.  The two parsers must produce identical
    parses; medians, minima and maxima of the interleaved repeats are
    recorded for the cross-PR trajectory.
    """
    _, test = csdn_quarters
    rng = random.Random(2016)
    bench_words = sorted(meter.trie.iter_words())
    long_words = _long_base(bench_words, rng, 500 if SMOKE else 5_000)
    cases = {
        "base": (meter.trie, test.unique_passwords()),
        "long": (
            build_base_trie(long_words),
            _long_probes(long_words, rng, 500 if SMOKE else 5_000),
        ),
    }
    values = {"repeats": PARSE_REPEATS, "statistic": "median"}
    for case, (trie, probes) in cases.items():
        parsers = {"pointer": pointer_parser(trie), "index": FuzzyParser(trie)}
        for parser in parsers.values():
            parser.parse("warmup")  # build the index and the pointer nodes
        timings = _time_parsers(parsers, probes)
        prefix = "" if case == "base" else "long_"
        medians = {}
        for name, seconds in timings.items():
            medians[name] = statistics.median(seconds)
            values[f"{prefix}{name}_seconds"] = medians[name]
            values[f"{prefix}{name}_min_seconds"] = min(seconds)
            values[f"{prefix}{name}_max_seconds"] = max(seconds)
        ratio = medians["pointer"] / medians["index"]
        values[f"{prefix}base_words"] = len(trie)
        values[f"{prefix}probes"] = len(probes)
        values[f"{prefix}ratio"] = ratio
        emit(
            capsys,
            f"(timing) parse {len(probes):,} passwords over {len(trie):,} "
            f"{'long ' if prefix else ''}base words -- pointer "
            f"{medians['pointer']:.2f} s, index {medians['index']:.2f} s "
            f"({ratio:.2f}x, medians of {PARSE_REPEATS})",
        )
    record("parse_index_vs_pointer", **values)


def test_timing_telemetry_overhead(meter, csdn_quarters, capsys):
    """Telemetry cost on bulk scoring, noop vs enabled, on two streams.

    DESIGN.md §9 budgets the collecting backend at under 5% on the
    ``probability_many`` sweep and the noop backend at no measurable
    cost.  Two streams are measured:

    * ``hit`` — the stream of ``test_timing_bulk_vs_single_measuring``,
      three sweeps over the test quarter with multiplicity, most of it
      answered by the call's distinct dict;
    * ``miss`` — unseen passwords (test passwords with distinct numeric
      suffixes), more of them than the score memo holds, so every one
      is parsed and the memo evicts: the shape of the benchmark's
      ``tail`` workload.

    A timed run scores its stream on ``laps`` fresh meters (fresh, so
    no lap is served by an earlier lap's score memo), as many as make
    it last ``TELEMETRY_MIN_SECONDS`` on the noop backend.  The two
    backends alternate lap by lap (noop, enabled, enabled, noop, ...,
    each lap swapping which goes first), so both
    sample the same spells of the host's speed instead of one of them
    masquerading as telemetry cost, and per stream the medians of the
    repeats are compared.  Scores must be bit-identical across
    backends — telemetry may observe the pipeline, never steer it.
    """
    from repro import obs
    from repro.obs import NoopTelemetry, Telemetry

    _, test = csdn_quarters
    cache_size = 256 if SMOKE else TELEMETRY_MISS_CACHE
    unseen = islice(cycle(test.unique_passwords()), 5 * cache_size)
    streams = {
        "hit": (list(test.expand()) * 3, meter.config),
        "miss": (
            [f"{password}{index}" for index, password in enumerate(unseen)],
            replace(meter.config, parse_cache_size=cache_size),
        ),
    }

    def one_run(stream, config, laps):
        """Scores and seconds per backend of ``laps`` alternating laps."""
        scores, seconds = {}, {"noop": 0.0, "enabled": 0.0}
        for lap in range(laps):
            # Each lap swaps which backend goes first.
            for label in ("noop", "enabled")[::1 - 2 * (lap % 2)]:
                backend = NoopTelemetry() if label == "noop" else Telemetry()
                obs.enable(backend)
                try:
                    run_meter = FuzzyPSM(meter.grammar, meter.trie, config)
                    run_meter.probability("warmup")
                    start = time.perf_counter()
                    scores[label] = run_meter.probability_many(stream)
                    seconds[label] += time.perf_counter() - start
                finally:
                    obs.disable()
        return scores, seconds

    medians = {}
    for name, (stream, config) in streams.items():
        _, lap_seconds = one_run(stream, config, 1)
        laps = 1 if SMOKE else max(
            1, math.ceil(TELEMETRY_MIN_SECONDS / lap_seconds["noop"])
        )
        timings = {"noop": [], "enabled": []}
        for _ in range(TELEMETRY_REPEATS):
            scores, seconds = one_run(stream, config, laps)
            assert scores["enabled"] == scores["noop"]
            for label in timings:
                timings[label].append(seconds[label])
        noop = statistics.median(timings["noop"])
        enabled = statistics.median(timings["enabled"])
        ratios = [on / off for on, off
                  in zip(timings["enabled"], timings["noop"])]
        medians[name] = (len(stream), laps, noop, enabled, enabled / noop,
                         min(ratios), max(ratios))
        emit(
            capsys,
            f"(timing) telemetry, {name} stream of {len(stream):,} "
            f"scores x {laps} laps -- noop {noop:.2f} s, enabled "
            f"{enabled:.2f} s ({(enabled / noop - 1) * 100:+.1f}%, "
            f"medians of {TELEMETRY_REPEATS}; per-repeat ratio "
            f"{min(ratios):.3f}-{max(ratios):.3f})",
        )
    hit, miss = medians["hit"], medians["miss"]
    record("telemetry_overhead", repeats=TELEMETRY_REPEATS,
           statistic="median", stream=hit[0], laps=hit[1],
           noop_seconds=hit[2], enabled_seconds=hit[3],
           enabled_ratio=hit[4], enabled_ratio_min=hit[5],
           enabled_ratio_max=hit[6], miss_stream=miss[0],
           miss_cache_size=cache_size, miss_laps=miss[1],
           miss_noop_seconds=miss[2], miss_enabled_seconds=miss[3],
           miss_enabled_ratio=miss[4], miss_enabled_ratio_min=miss[5],
           miss_enabled_ratio_max=miss[6])
    # Generous 1.15x ceiling against jitter on both streams; the
    # recorded numbers carry the real figures.
    for name, (_, _, _, _, ratio, _, _) in medians.items():
        assert SMOKE or ratio < 1.15, (name, ratio)
