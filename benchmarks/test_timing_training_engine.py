"""Corpus-scale training: the window engine against the reference pass.

The training engine sums entries into a first-seen window of at most
65,536 distinct passwords, parses each password of a full window once
and counts the window's parses in one batch, with their summed counts.
For corpora that don't fit comfortably in memory it runs over a
stream: the loader reads the file a block of lines at a time and
yields bounded ``(password, count)`` chunks.

This bench trains fuzzyPSM on a ~10^6-entry Zipf-shaped plain corpus
two ways —

* ``reference`` — the per-entry reference pass of
  ``tests/training_oracle.py`` (one parse and one ``observe`` per
  entry) over the corpus materialised as one in-memory list,
* ``streamed``  — ``FuzzyPSM.train_streaming`` over loader chunks,

and asserts the two grammars are byte-identical (same ``to_dict``
SHA-256), that the streamed engine holds peak RSS below the in-memory
reference and inside a fixed budget, and that it beats the reference
by more than :data:`_SPEEDUP_GATE` in the median of
:data:`_REPEATS` repeats.  The engine's win is algorithmic: each
distinct password of a window is parsed once, so a Zipf-shaped corpus
does a fraction of the parse work.

Each configuration runs in a **fresh subprocess**: peak RSS is a
per-process high-water mark (monotone within a process, so in-process
ordering would contaminate later configs), and a cold process also
gives every config the same allocator/import state for fair timing.
The child reads its peak through ``repro.obs.core.peak_rss_kib``
(``VmHWM`` where ``/proc`` exists): Linux carries ``ru_maxrss`` across
``execve``, so under ``make bench`` a child would otherwise report the
larger pytest process's peak instead of its own.  The two
configurations alternate which runs first from one repeat to the next.

Smoke mode shrinks the corpus, runs one repeat and keeps only the
equivalence assert.
"""

import json
import os
import random
import statistics
import subprocess
import sys

import pytest

from bench_lib import SMOKE, emit, record, spread

#: Corpus shape (full scale / smoke scale).
_TOTAL = 20_000 if SMOKE else 1_000_000
_DISTINCT = 5_000 if SMOKE else 250_000
_CHUNK = 2_000 if SMOKE else 50_000
_BASE_WORDS = 2_000 if SMOKE else 20_000

#: Repeats of the reference/streamed pair.
_REPEATS = 1 if SMOKE else 5

#: Lowest median ``reference / streamed`` ratio the gate accepts.  Two
#: runs of five repeats on a 2-core host (Python 3.11.7) read medians
#: of 3.65x and 3.79x, single repeats 2.98-4.21x; the gate sits below
#: every repeat, and above the 1.5 of the pool gate it replaced.
_SPEEDUP_GATE = 2.5

#: Fixed peak-RSS budget for the streamed engine at full scale
#: (measured 87-97 MiB on the 10^6 corpus; the in-memory reference
#: sits at ~148 MiB, so a breach means streaming stopped streaming).
_RSS_BUDGET_KIB = 200 * 1024

_SEED_WORDS = [
    "password", "dragon", "monkey", "qwerty", "sunshine", "shadow",
    "master", "killer", "angel", "summer", "love", "soccer", "tiger",
    "pepper", "silver", "winter", "flower", "cookie",
]

#: One training configuration, run cold.  argv: mode corpus base chunk;
#: prints a single JSON object on stdout.
_CHILD = """
import hashlib, json, sys, time

mode, corpus_path, base_path = sys.argv[1], sys.argv[2], sys.argv[3]
chunk_size = int(sys.argv[4])

from repro.core import FuzzyPSM
from repro.core.training import build_base_trie
from repro.datasets.loaders import iter_password_entries, \\
    stream_corpus_chunks
from repro.obs.core import peak_rss_kib
from tests.training_oracle import train_reference

with open(base_path, encoding="utf-8") as handle:
    base = [line.rstrip("\\n") for line in handle if line.strip()]

start = time.perf_counter()
if mode == "reference":
    entries = [
        password
        for password, count in iter_password_entries(corpus_path)
        for _ in range(count)
    ]
    trie = build_base_trie(base)
    meter = FuzzyPSM(train_reference(entries, trie), trie)
elif mode == "streamed":
    meter = FuzzyPSM.train_streaming(
        base, stream_corpus_chunks(corpus_path, chunk_size=chunk_size),
    )
else:
    raise SystemExit(f"unknown mode {mode!r}")
seconds = time.perf_counter() - start

digest = hashlib.sha256(
    json.dumps(meter.to_dict()).encode("utf-8")
).hexdigest()
print(json.dumps({
    "seconds": seconds,
    "rss_kib": peak_rss_kib(),
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
    # The reference pass lives in the tests package.
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD, mode, corpus, base, str(_CHUNK)],
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

    runs = {"reference": [], "streamed": []}
    for repeat in range(_REPEATS):
        # Each repeat swaps which configuration runs first.
        for mode in tuple(runs)[::1 - 2 * (repeat % 2)]:
            runs[mode].append(_run_config(mode, corpus, base))

    # The trained grammars must be byte-identical across every run.
    digests = {run["sha256"] for results in runs.values() for run in results}
    assert len(digests) == 1, digests

    seconds = {mode: [run["seconds"] for run in results]
               for mode, results in runs.items()}
    rss = {mode: [run["rss_kib"] for run in results]
           for mode, results in runs.items()}
    ratios = [reference / streamed for reference, streamed
              in zip(seconds["reference"], seconds["streamed"])]
    speedup = statistics.median(ratios)
    lines = [
        f"  {mode:9s} {statistics.median(seconds[mode]):8.2f} s "
        f"({min(seconds[mode]):.2f}-{max(seconds[mode]):.2f})   "
        f"peak RSS {max(rss[mode]) / 1024:7.1f} MiB"
        for mode in runs
    ]
    emit(
        capsys,
        f"(timing) streaming training, {total:,} entries "
        f"({_DISTINCT:,} distinct, chunks of {_CHUNK:,}), medians of "
        f"{_REPEATS}:\n" + "\n".join(lines)
        + f"\n  streamed speedup over the reference: {speedup:.2f}x "
        f"({min(ratios):.2f}-{max(ratios):.2f})",
    )
    record(
        "training_streaming",
        total_entries=total,
        distinct=_DISTINCT,
        chunk_size=_CHUNK,
        repeats=_REPEATS,
        **spread("reference_seconds", seconds["reference"]),
        **spread("streamed_seconds", seconds["streamed"]),
        **spread("speedup", ratios),
        reference_rss_kib=max(rss["reference"]),
        streamed_rss_kib=max(rss["streamed"]),
    )

    if SMOKE:
        return  # equivalence asserted above; ratios/RSS are toy-scale

    assert speedup > _SPEEDUP_GATE, (
        f"streamed training only {speedup:.2f}x over the reference"
    )
    # Streaming exists to bound memory: the streamed engine must
    # undercut the in-memory reference's high-water mark AND stay inside
    # a fixed budget at corpus scale (a breach means a chunk's or a
    # window's counts started accumulating).
    assert max(rss["streamed"]) < min(rss["reference"]), rss
    assert max(rss["streamed"]) < _RSS_BUDGET_KIB, (
        f"streamed peak RSS {max(rss['streamed'])} KiB exceeds "
        f"the {_RSS_BUDGET_KIB} KiB streaming budget"
    )
