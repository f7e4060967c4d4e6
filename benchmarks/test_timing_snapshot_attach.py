"""Snapshot-plane attach latency on the training pool's segment.

Pool training (``train_grammar(..., jobs=N)`` and its streaming twin)
publishes the columns of the parent's word indexes into one trie-only
shared-memory segment (DESIGN.md §16), and every worker attaches it by
*name* and rebuilds the index dicts from the columns: no matcher is
pickled into a worker or rebuilt from the word list, under fork and
spawn alike.

This bench builds the parser over the base dictionary, publishes the
segment the way the training pool does, and measures cold attach +
materialize in fresh child processes, then the first parse after
attach.  It asserts that every child parses the probes byte-identically
to the publisher and, at full scale, that the median attach stays under
50 ms.

Smoke mode shrinks the dictionary and keeps the equivalence asserts
only: toy-scale latencies are meaningless.
"""

import json
import os
import statistics
import subprocess
import sys

from bench_lib import SMOKE, emit, record

from repro.core.parser import FuzzyParser
from repro.core.shm import MaterializedScoringState, SharedScoringSegment
from repro.core.training import build_base_trie
from repro.obs.core import now

#: Base-dictionary words behind the segment (full scale / smoke scale).
_BASE_WORDS = 2_000 if SMOKE else 20_000
#: Cold attach processes measured; the median is the headline number.
_ATTACH_RUNS = 3 if SMOKE else 5

#: Full-scale acceptance bound: attach + materialize in a fresh
#: process must stay under 50 ms.
_ATTACH_BUDGET_MS = 50.0

#: One cold reader: attach by segment name, build the parser, parse
#: the probes.  Timed inside the child so interpreter start-up and
#: imports are excluded; prints one JSON object on stdout.
_ATTACH_CHILD = """
import json, sys, time

name, probes = sys.argv[1], json.loads(sys.argv[2])

from repro.core.shm import _worker_attach_state

start = time.perf_counter()
state = _worker_attach_state(name)
attach_seconds = time.perf_counter() - start

start = time.perf_counter()
parser = state.build_parser()
parses = [parser.parse_flat(probe) for probe in probes]
first_parse_seconds = time.perf_counter() - start

print(json.dumps({
    "attach_seconds": attach_seconds,
    "first_parse_seconds": first_parse_seconds,
    "parses": parses,
}))
"""


def _attach_cold(segment_name: str, probes: list) -> dict:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    completed = subprocess.run(
        [sys.executable, "-c", _ATTACH_CHILD, segment_name,
         json.dumps(probes)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert completed.returncode == 0, (
        f"attach child failed:\n{completed.stderr}"
    )
    return json.loads(completed.stdout)


def test_timing_snapshot_attach(corpora, capsys):
    base = sorted(corpora["tianya"].unique_passwords())[:_BASE_WORDS]
    parser = FuzzyParser(build_base_trie(base))
    word = max(base, key=len)
    probes = [word, word.capitalize() + "!2016", word[::-1], "zz9#qq"]
    expected = json.loads(json.dumps(
        [parser.parse_flat(probe) for probe in probes]
    ))

    publish_start = now()
    segment = SharedScoringSegment.create(
        MaterializedScoringState.from_parser(parser)
    )
    publish_seconds = now() - publish_start
    try:
        runs = [
            _attach_cold(segment.name, probes) for _ in range(_ATTACH_RUNS)
        ]
    finally:
        segment.unlink()
    for run in runs:
        # Cross-process byte-identity rides along with the timing.
        assert run["parses"] == expected
    attach_ms = [run["attach_seconds"] * 1e3 for run in runs]
    first_parse_ms = [run["first_parse_seconds"] * 1e3 for run in runs]
    attach_median = statistics.median(attach_ms)

    emit(
        capsys,
        f"(timing) snapshot plane, trie-only segment over "
        f"{len(base):,} base words, {segment.size / 2**20:.1f} MiB:\n"
        f"  publish                    {publish_seconds * 1e3:8.1f} ms\n"
        f"  cold attach (median of {len(runs)})  {attach_median:8.1f} ms"
        f"  [{min(attach_ms):.1f}, {max(attach_ms):.1f}]\n"
        f"  first parse after attach   "
        f"{statistics.median(first_parse_ms):8.1f} ms",
    )
    record(
        "snapshot_attach",
        base_words=len(base),
        segment_bytes=segment.size,
        publish_ms=publish_seconds * 1e3,
        runs=len(runs),
        attach_median_ms=attach_median,
        attach_min_ms=min(attach_ms),
        attach_max_ms=max(attach_ms),
        first_parse_median_ms=statistics.median(first_parse_ms),
    )

    if SMOKE:
        return  # equivalence asserted above; latencies are toy-scale

    assert attach_median < _ATTACH_BUDGET_MS, (
        f"cold attach took {attach_median:.1f} ms against a "
        f"{len(base):,}-word base dictionary (budget "
        f"{_ATTACH_BUDGET_MS:.0f} ms)"
    )
