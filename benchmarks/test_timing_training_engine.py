"""Corpus-scale training: in-memory serial vs streamed vs parallel.

The streaming trainer (``train_grammar_streaming``) exists for corpora
that don't fit comfortably in memory: the loader reads the file a
block of lines at a time and yields bounded ``(password, count)``
chunks; the trainer sums entries into a first-seen window of at most
65,536 distinct passwords, parses each password of a full window
once and counts the window's parses in one batch, with their summed
counts; and with ``jobs > 1`` each window is cut into slices that
persistent workers parse and count, shipping the plain counts back
instead of pickled grammars.

This bench trains fuzzyPSM on a ~10^6-entry Zipf-shaped plain corpus
three ways —

* ``serial``            — classic ``FuzzyPSM.train`` over the corpus
                          materialised as one in-memory list,
* ``streamed_serial``   — ``FuzzyPSM.train_streaming`` over loader
                          chunks, ``jobs=1``,
* ``streamed_parallel`` — the same stream with ``jobs=2``,

and asserts the three grammars are byte-identical (same ``to_dict``
SHA-256), that the streamed paths hold peak RSS below the in-memory
path, and that the streamed parallel path beats serial by >1.5x.

Each configuration runs in a **fresh subprocess**: ``ru_maxrss`` is a
per-process high-water mark (monotone within a process, so in-process
ordering would contaminate later configs), and a cold process also
gives every config the same allocator/import state for fair timing.

On a single-core host the trainer clamps ``jobs`` to the core count
and the ``streamed_parallel`` config degrades — observably, via
``training.parallel.fallback`` — to the streamed serial engine, whose
win over the in-memory path is algorithmic: each distinct password of
a window is parsed once, so a Zipf-shaped corpus does a fraction of
the parse work.  (An earlier revision let ``jobs=2`` spawn real
workers on one core; IPC ate the entire 2x algorithmic win — 38.3s vs
19.7s streamed serial — which is exactly why the clamp exists.)  With
more cores the pool parses a window's slices concurrently on top of
the same aggregation.  The in-memory ``serial`` config stays the
per-entry reference loop, which the ``> 1.5x`` gate divides by.

Smoke mode shrinks the corpus and keeps only the equivalence asserts;
at toy scale the streamed stream falls below the parallel threshold
and exercises the serial-fallback path instead, which is asserted
byte-identical all the same.
"""

import json
import os
import random
import subprocess
import sys

import pytest

from bench_lib import SMOKE, emit, record

#: Corpus shape (full scale / smoke scale).
_TOTAL = 20_000 if SMOKE else 1_000_000
_DISTINCT = 5_000 if SMOKE else 250_000
_CHUNK = 2_000 if SMOKE else 50_000
_BASE_WORDS = 2_000 if SMOKE else 20_000
_JOBS = 2

#: Fixed peak-RSS budget for the streamed engines at full scale
#: (measured 87-97 MiB on the 10^6 corpus; the in-memory serial path
#: sits at ~148 MiB, so a breach means streaming stopped streaming).
_RSS_BUDGET_KIB = 200 * 1024

_SEED_WORDS = [
    "password", "dragon", "monkey", "qwerty", "sunshine", "shadow",
    "master", "killer", "angel", "summer", "love", "soccer", "tiger",
    "pepper", "silver", "winter", "flower", "cookie",
]

#: One training configuration, run cold.  argv: mode corpus base chunk
#: jobs; prints a single JSON object on stdout.
_CHILD = """
import hashlib, json, resource, sys, time

mode, corpus_path, base_path = sys.argv[1], sys.argv[2], sys.argv[3]
chunk_size, jobs = int(sys.argv[4]), int(sys.argv[5])

from repro.core import FuzzyPSM
from repro.datasets.loaders import iter_password_entries, \\
    stream_corpus_chunks

with open(base_path, encoding="utf-8") as handle:
    base = [line.rstrip("\\n") for line in handle if line.strip()]

start = time.perf_counter()
if mode == "serial":
    entries = [
        password
        for password, count in iter_password_entries(corpus_path)
        for _ in range(count)
    ]
    meter = FuzzyPSM.train(base, entries)
elif mode == "streamed_serial":
    meter = FuzzyPSM.train_streaming(
        base, stream_corpus_chunks(corpus_path, chunk_size=chunk_size),
        jobs=1,
    )
elif mode == "streamed_parallel":
    meter = FuzzyPSM.train_streaming(
        base, stream_corpus_chunks(corpus_path, chunk_size=chunk_size),
        jobs=jobs,
    )
else:
    raise SystemExit(f"unknown mode {mode!r}")
seconds = time.perf_counter() - start

digest = hashlib.sha256(
    json.dumps(meter.to_dict()).encode("utf-8")
).hexdigest()
print(json.dumps({
    "seconds": seconds,
    "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "sha256": digest,
}))
"""


def _write_corpus(path: str) -> int:
    """A deterministic Zipf-shaped plain corpus; returns line count.

    Rank ``r`` gets ``~C/r`` occurrences (floor 1), the classic
    password-frequency shape, and the lines are shuffled so first-seen
    order — which the grammar's count tables inherit — is non-trivial.
    """
    rng = random.Random(0)
    weight = _TOTAL / sum(1.0 / rank for rank in range(1, _DISTINCT + 1))
    lines = []
    for rank in range(1, _DISTINCT + 1):
        word = _SEED_WORDS[rank % len(_SEED_WORDS)]
        password = f"{word}{rank}" if rank % 3 else f"{rank}{word}"
        lines.extend([password] * max(1, int(weight / rank)))
    rng.shuffle(lines)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return len(lines)


def _run_config(mode: str, corpus: str, base: str) -> dict:
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src")
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD, mode, corpus, base,
         str(_CHUNK), str(_JOBS)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert completed.returncode == 0, (
        f"{mode} trainer failed:\n{completed.stderr}"
    )
    return json.loads(completed.stdout)


@pytest.fixture(scope="module")
def training_files(tmp_path_factory, corpora):
    tmp = tmp_path_factory.mktemp("training-engine")
    corpus = str(tmp / "training.txt")
    total = _write_corpus(corpus)
    base = str(tmp / "base.txt")
    words = sorted(corpora["tianya"].unique_passwords())[:_BASE_WORDS]
    with open(base, "w", encoding="utf-8") as handle:
        handle.write("\n".join(words) + "\n")
    return corpus, base, total


def test_timing_streaming_training(training_files, capsys):
    corpus, base, total = training_files

    results = {
        mode: _run_config(mode, corpus, base)
        for mode in ("serial", "streamed_serial", "streamed_parallel")
    }

    # The trained grammars must be byte-identical across all engines.
    digests = {mode: result["sha256"] for mode, result in results.items()}
    assert len(set(digests.values())) == 1, digests

    speedup = (
        results["serial"]["seconds"]
        / results["streamed_parallel"]["seconds"]
    )
    lines = [
        f"  {mode:17s} {result['seconds']:8.2f} s   "
        f"peak RSS {result['rss_kib'] / 1024:7.1f} MiB"
        for mode, result in results.items()
    ]
    emit(
        capsys,
        f"(timing) streaming training, {total:,} entries "
        f"({_DISTINCT:,} distinct, chunks of {_CHUNK:,}):\n"
        + "\n".join(lines)
        + f"\n  parallel speedup over in-memory serial: {speedup:.2f}x",
    )
    record(
        "training_streaming_parallel",
        total_entries=total,
        distinct=_DISTINCT,
        chunk_size=_CHUNK,
        jobs=_JOBS,
        serial_seconds=results["serial"]["seconds"],
        streamed_serial_seconds=results["streamed_serial"]["seconds"],
        streamed_parallel_seconds=results["streamed_parallel"]["seconds"],
        parallel_speedup=speedup,
        serial_rss_kib=results["serial"]["rss_kib"],
        streamed_serial_rss_kib=results["streamed_serial"]["rss_kib"],
        streamed_parallel_rss_kib=results["streamed_parallel"]["rss_kib"],
    )

    if SMOKE:
        return  # equivalence asserted above; ratios/RSS are toy-scale

    assert speedup > 1.5, (
        f"streamed parallel training only {speedup:.2f}x over serial"
    )
    # Streaming exists to bound memory: both streamed engines must undercut
    # the in-memory path's high-water mark AND stay inside a fixed budget
    # at corpus scale (a breach means a chunk, window or slice's counts
    # started accumulating).
    for mode in ("streamed_serial", "streamed_parallel"):
        assert results[mode]["rss_kib"] < results["serial"]["rss_kib"], (
            f"{mode} peak RSS {results[mode]['rss_kib']} KiB is not "
            f"below in-memory serial {results['serial']['rss_kib']} KiB"
        )
        assert results[mode]["rss_kib"] < _RSS_BUDGET_KIB, (
            f"{mode} peak RSS {results[mode]['rss_kib']} KiB exceeds "
            f"the {_RSS_BUDGET_KIB} KiB streaming budget"
        )
