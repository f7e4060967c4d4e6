"""Helpers shared by the benchmark modules (not collected by pytest)."""

from __future__ import annotations

import json
import os
import platform
import subprocess

#: Entries per generated test corpus (paper corpora are ~10^6-10^7).
CORPUS_SIZE = int(os.environ.get("REPRO_BENCH_CORPUS", 20_000))
#: Entries in base dictionaries (paper: Rockyou/Tianya, ~3 * 10^7).
BASE_SIZE = int(os.environ.get("REPRO_BENCH_BASE", 100_000))
SEED = 0

#: Smoke mode (``make bench-smoke``): the timing benches still run end
#: to end and still assert *equivalence* (fast path == reference, bit
#: for bit), but skip the speedup thresholds — at smoke-sized corpora
#: the constant overheads dominate and the ratios are meaningless.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

#: Where the timing benches persist their numbers, so the perf
#: trajectory is tracked across PRs (one JSON object, merged in place).
TIMING_RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_timing.json",
)


def emit(capsys, text: str) -> None:
    """Print a result table through pytest's capture barrier."""
    with capsys.disabled():
        print()
        print(text)


def host() -> dict:
    """The host block every recorded entry carries.

    ``git_sha`` is ``git describe --always --dirty`` of the checkout
    the bench ran in, so an entry recorded from uncommitted code says
    so.
    """
    from repro.core.shm import mp_context

    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=os.path.dirname(TIMING_RESULTS_PATH), capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "start_method": mp_context().get_start_method(),
        "git_sha": sha,
    }


def record(name: str, **values) -> None:
    """Merge one bench's measurements into ``BENCH_timing.json``.

    Each bench owns one top-level key; re-running a single bench
    refreshes its entry without clobbering the others.  Every entry
    carries the :func:`host` block.  Floats are rounded so diffs across
    PRs stay readable.

    Smoke runs never persist: their timings are taken at toy scale and
    would clobber the tracked full-scale numbers.
    """
    if SMOKE:
        return
    values = {**host(), **values}
    results = {}
    if os.path.exists(TIMING_RESULTS_PATH):
        with open(TIMING_RESULTS_PATH) as handle:
            try:
                results = json.load(handle)
            except ValueError:
                results = {}
    results[name] = {
        key: round(value, 6) if isinstance(value, float) else value
        for key, value in values.items()
    }
    with open(TIMING_RESULTS_PATH, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
