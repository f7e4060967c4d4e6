"""The fuzzyPSM training phase (paper Sec. IV-C).

Training is a single pass: build the base trie from the base dictionary
``B`` (lower-cased, length >= 3), then parse every password of the
training dictionary ``T`` and accumulate its derivation into the fuzzy
grammar's count tables.  The paper reports ~10 s per million training
passwords; this implementation is linear in total training characters.

Because training is pure counting, it parallelises exactly.  Two
engines share one worker pool design:

* :func:`train_grammar` — the in-memory engine: materialise the
  entries, split them into chunks, parse each chunk in a worker
  process, fold the results.
* :func:`train_grammar_streaming` — the out-of-core engine: consume an
  iterator of bounded chunks (see
  :func:`repro.datasets.loaders.stream_corpus_chunks`) through a
  bounded in-flight window, so neither the corpus nor the pool's task
  queue is ever materialised.  Memory stays flat in corpus size.

Workers are initialised **once** per pool with the parent's compiled
flat-array matchers (:meth:`FuzzyParser.ensure_compiled_matchers` →
:meth:`FuzzyParser.from_compiled`), not a rebuilt pointer trie, and
they return compact :class:`~repro.core.deltas.GrammarDelta` records —
interned-index count columns — instead of pickling a full
:class:`FuzzyGrammar` per chunk.  Chunks are aggregated per distinct
password before parsing and parsed through the worker's LRU parse
cache, so a skewed real-world corpus pays one parse per distinct
password per chunk rather than one per occurrence.  Counting commutes
and deltas are applied in submission order, so both engines produce a
grammar whose ``to_dict`` is byte-identical to the serial pass
(``tests/test_training_streaming.py``).
"""

from __future__ import annotations

import itertools
import multiprocessing.pool
import os
from collections import deque
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro import obs
from repro.obs.core import now as _now
from repro.core.deltas import DeltaBuilder, DeltaMerger, GrammarDelta
from repro.core.grammar import FuzzyGrammar
from repro.core.parser import FuzzyParser, parse_tally
from repro.core.shm import (
    MaterializedScoringState,
    SharedScoringSegment,
    _worker_attach_state,
    mp_context,
)
from repro.core.trie import PrefixTrie

#: Training entries may carry a multiplicity, e.g. from a frequency file.
PasswordEntry = Union[str, Tuple[str, int]]

#: Corpora smaller than this train serially even when ``jobs > 1``.
#: Worker startup is a fixed cost of high hundreds of milliseconds
#: (process spawn plus the compiled-matcher broadcast) against a
#: ~100 us/password serial parse rate, so the break-even sits in the
#: tens of thousands of entries.  Below the cutoff ``jobs`` degrades to
#: the serial path and emits ``training.parallel.fallback`` so the
#: degradation is visible in telemetry; pass ``parallel_threshold`` to
#: override (tests and tuning).
PARALLEL_MIN_ENTRIES = 50_000

#: In-flight chunks per worker in the streaming engine.  The window
#: keeps every worker busy without letting ``apply_async`` results (or
#: the submitted chunks themselves) pile up unboundedly — this, not
#: ``Pool.imap`` (whose feeder thread slurps the whole iterable into
#: the task queue), is what keeps streamed training memory flat.
STREAM_INFLIGHT_PER_JOB = 4


def _available_cpus() -> int:
    """CPUs the pool could actually use (patchable in tests)."""
    return os.cpu_count() or 1


def _effective_jobs(jobs: int) -> int:
    """Clamp ``jobs`` to the host's CPU count.

    Workers beyond the core count cannot run concurrently — they only
    add process spawn, chunk pickling and delta IPC on top of the same
    serial compute (measured at ~2x total time for ``jobs=2`` on one
    core, BENCH_timing.json ``training_streaming_parallel``).  A clamp
    to one worker routes to the serial engine, which the caller reports
    through the ``training.parallel.fallback`` counter.
    """
    return min(jobs, _available_cpus())


def build_base_trie(base_dictionary: Iterable[str],
                    min_length: int = 3) -> PrefixTrie:
    """Build the basic-password trie from a base dictionary.

    Entries are lower-cased; entries shorter than ``min_length``
    (paper default: 3) are dropped.  Duplicates are harmless.

    >>> trie = build_base_trie(["PassWord", "ab", "123456"])
    >>> "password" in trie, "ab" in trie
    (True, False)
    """
    trie = PrefixTrie(min_length=min_length)
    for password in base_dictionary:
        trie.insert(password.lower())
    return trie


def _iter_entries(
    passwords: Iterable[PasswordEntry],
) -> Iterator[Tuple[str, int]]:
    """Normalise entries to ``(password, count)``, validating counts.

    A non-positive count would silently corrupt every table it touches
    (:class:`~repro.util.freqdist.FrequencyDistribution` drops zeros and
    rejects negatives only per-table), so it is rejected here with the
    offending entry named.
    """
    for entry in passwords:
        if isinstance(entry, str):
            yield entry, 1
        else:
            password, count = entry
            if count <= 0:
                raise ValueError(
                    f"training count for {password!r} must be positive, "
                    f"got {count!r}"
                )
            yield password, count


def _normalise_chunk(chunk: Iterable[PasswordEntry],
                     skip_empty: bool) -> List[Tuple[str, int]]:
    """One chunk's entries, validated and with empties resolved."""
    entries: List[Tuple[str, int]] = []
    for password, count in _iter_entries(chunk):
        if not password:
            if skip_empty:
                continue
            raise ValueError("cannot train on an empty password")
        entries.append((password, count))
    return entries


def _aggregate_chunk(
    chunk: List[Tuple[str, int]]
) -> Dict[str, int]:
    """Sum a chunk's counts per distinct password, first-seen order.

    Dict insertion order is first-seen order and
    ``add(key, n) == n x add(key, 1)``, so observing the aggregate once
    per distinct password yields the same count tables *in the same
    insertion order* as observing every occurrence — while paying one
    parse per distinct password instead of one per occurrence.
    """
    aggregated: Dict[str, int] = {}
    for password, count in chunk:
        aggregated[password] = aggregated.get(password, 0) + count
    return aggregated


#: Per-worker parser and delta builder, created once by the pool
#: initialiser so every chunk mapped to that worker reuses the same
#: compiled matcher, parse cache and intern tables.
_WORKER_PARSER: Optional[FuzzyParser] = None
_WORKER_BUILDER: Optional[DeltaBuilder] = None


def _worker_init_shared(segment_name: str) -> None:
    """Pool initialiser: attach the parent's snapshot segment by name.

    The parent compiles its flat-array matchers once
    (:meth:`FuzzyParser.ensure_compiled_matchers`) and publishes them
    into a shared-memory segment (DESIGN.md §16); workers attach
    zero-copy and wrap the mapped tables with
    :meth:`FuzzyParser.from_compiled` without ever touching a pointer
    trie — or a pickle.  Per-process setup cost is therefore flat in
    the base dictionary's size under ``fork`` and ``spawn`` alike.
    """
    global _WORKER_PARSER, _WORKER_BUILDER
    state = _worker_attach_state(segment_name)
    _WORKER_PARSER = state.build_parser()
    _WORKER_BUILDER = DeltaBuilder(worker_id=os.getpid())


def _delta_chunk(chunk: List[Tuple[str, int]]) -> GrammarDelta:
    """Parse one chunk of ``(password, count)`` pairs into a delta.

    The delta carries the worker-side parse seconds home: the parent's
    telemetry backend cannot see into pool processes, so each chunk
    ships its own timing for the ``train.chunk.seconds`` histogram.
    """
    parser = _WORKER_PARSER
    builder = _WORKER_BUILDER
    assert parser is not None and builder is not None, (
        "pool initialiser did not run"
    )
    start = _now()
    parse = parser.parse_flat_cached
    for password, count in _aggregate_chunk(chunk).items():
        builder.observe(parse(password), count)
    return builder.finish_chunk(_now() - start)


@contextmanager
def _training_pool(
    parser: FuzzyParser, jobs: int
) -> Iterator[multiprocessing.pool.Pool]:
    """The persistent worker pool for ``parser``, with segment lifetime.

    The parser's flat-array matchers are published into a trie-only
    shared-memory segment (no grammar tables — training workers parse,
    they do not score) and every worker gets just the segment name;
    the segment is unlinked when the pool winds down.  The pool comes
    from :func:`repro.core.shm.mp_context`, so ``REPRO_START_METHOD``
    governs training exactly like scoring and serving.
    """
    segment = SharedScoringSegment.create(
        MaterializedScoringState.from_parser(parser)
    )
    try:
        with mp_context().Pool(
            processes=jobs,
            initializer=_worker_init_shared,
            initargs=(segment.name,),
        ) as pool:
            yield pool
    finally:
        segment.unlink()


def train_grammar(training_passwords: Iterable[PasswordEntry],
                  trie: PrefixTrie,
                  parser: Optional[FuzzyParser] = None,
                  skip_empty: bool = True,
                  jobs: Optional[int] = None,
                  parallel_threshold: Optional[int] = None) -> FuzzyGrammar:
    """Learn a :class:`FuzzyGrammar` from the training dictionary.

    Args:
        training_passwords: passwords (optionally ``(password, count)``
            pairs) from the sensitive-service leak ``T``.
        trie: the base-dictionary trie from :func:`build_base_trie`.
        parser: override the parser (used by the parsing ablation).
        skip_empty: drop empty strings rather than raising.
        jobs: number of worker processes.  ``None``, ``0`` and ``1``
            train serially; ``N > 1`` chunks the corpus across ``N``
            processes and folds the per-chunk count deltas, which is
            exact (counting commutes — see
            :class:`~repro.core.deltas.DeltaMerger`).  Small corpora
            fall back to the serial path automatically: below
            ``parallel_threshold`` entries the pool's fixed startup
            cost exceeds the entire serial parse time.  ``jobs`` is
            also clamped to the host's CPU count, so a single-core
            host always trains serially (see :func:`_effective_jobs`).
        parallel_threshold: corpus-size cutoff for that fallback
            (default :data:`PARALLEL_MIN_ENTRIES`).

    Returns:
        the trained grammar; training is pure counting, so the same
        grammar object also supports the paper's update phase via
        :meth:`FuzzyGrammar.observe`.
    """
    if jobs is not None and jobs < 0:
        raise ValueError(f"jobs must be non-negative, got {jobs}")
    if parser is None:
        parser = FuzzyParser(trie)
    if not jobs or jobs == 1:
        return _train_grammar_serial(
            _iter_entries(training_passwords), parser, skip_empty
        )
    if _effective_jobs(jobs) == 1:
        # Requested workers can't run concurrently on this host; the
        # pool would only add IPC on top of the same serial compute.
        _record_parallel_fallback()
        return _train_grammar_serial(
            _iter_entries(training_passwords), parser, skip_empty
        )
    jobs = _effective_jobs(jobs)
    entries = _normalise_chunk(training_passwords, skip_empty)
    threshold = (
        PARALLEL_MIN_ENTRIES if parallel_threshold is None
        else parallel_threshold
    )
    if len(entries) < threshold:
        _record_parallel_fallback()
        return _train_grammar_serial(iter(entries), parser,
                                     skip_empty=False)
    return _train_grammar_parallel(entries, parser, jobs)


def _record_parallel_fallback() -> None:
    """Emit the counters that make a parallel->serial degrade visible."""
    telemetry = obs.get()
    if telemetry.enabled:
        telemetry.incr("train.fallback.serial")
        telemetry.incr("training.parallel.fallback")


def train_grammar_streaming(
    chunks: Iterable[Iterable[PasswordEntry]],
    trie: PrefixTrie,
    parser: Optional[FuzzyParser] = None,
    skip_empty: bool = True,
    jobs: Optional[int] = None,
    parallel_threshold: Optional[int] = None,
) -> FuzzyGrammar:
    """Learn a grammar from an out-of-core stream of entry chunks.

    The streaming twin of :func:`train_grammar`: ``chunks`` is an
    iterator of bounded batches (typically
    :func:`repro.datasets.loaders.stream_corpus_chunks`), consumed
    exactly once and never materialised, so peak memory is governed by
    the chunk size and the in-flight window rather than the corpus.

    Serial streaming aggregates each chunk per distinct password and
    parses through the LRU cache; parallel streaming feeds the same
    chunks to the delta worker pool through a bounded ``apply_async``
    window and applies deltas in submission order.  Both produce a
    grammar byte-identical (``to_dict``) to :func:`train_grammar` over
    the concatenated entries.

    Parallel runs first buffer chunks until ``parallel_threshold``
    entries have arrived; a stream that ends before reaching it trains
    serially instead (pool startup would dominate) and emits the
    ``training.parallel.fallback`` counter.  ``jobs`` is clamped to
    the host's CPU count the same way as in :func:`train_grammar`.
    """
    if jobs is not None and jobs < 0:
        raise ValueError(f"jobs must be non-negative, got {jobs}")
    if parser is None:
        parser = FuzzyParser(trie)
    normalised = (_normalise_chunk(chunk, skip_empty) for chunk in chunks)
    if not jobs or jobs == 1:
        return _train_streaming_serial(normalised, parser)
    if _effective_jobs(jobs) == 1:
        # Single-core host: see :func:`_effective_jobs`.
        _record_parallel_fallback()
        return _train_streaming_serial(normalised, parser)
    jobs = _effective_jobs(jobs)
    threshold = (
        PARALLEL_MIN_ENTRIES if parallel_threshold is None
        else parallel_threshold
    )
    buffered: List[List[Tuple[str, int]]] = []
    total = 0
    iterator = iter(normalised)
    for chunk in iterator:
        buffered.append(chunk)
        total += len(chunk)
        if total >= threshold:
            break
    else:
        # Stream ended below break-even: the pool's startup cost would
        # dominate, so degrade to serial — visibly.
        _record_parallel_fallback()
        return _train_streaming_serial(iter(buffered), parser)
    return _train_streaming_parallel(
        itertools.chain(buffered, iterator), parser, jobs
    )


def _train_grammar_serial(entries: Iterator[Tuple[str, int]],
                          parser: FuzzyParser,
                          skip_empty: bool) -> FuzzyGrammar:
    """One in-process pass over normalised ``(password, count)`` pairs."""
    telemetry = obs.get()
    grammar = FuzzyGrammar()
    observe = grammar.observe
    parse = parser.parse_flat
    trained = 0
    with parse_tally() as tally, telemetry.timer("train.serial.seconds"):
        for password, count in entries:
            if not password:
                if skip_empty:
                    continue
                raise ValueError("cannot train on an empty password")
            observe(parse(password, tally), count)
            trained += 1
    if telemetry.enabled:
        telemetry.incr("train.passwords", trained)
    return grammar


def _train_streaming_serial(
    chunks: Iterator[List[Tuple[str, int]]],
    parser: FuzzyParser,
) -> FuzzyGrammar:
    """In-process streamed training: aggregate, parse cached, observe."""
    telemetry = obs.get()
    grammar = FuzzyGrammar()
    observe = grammar.observe
    parse = parser.parse_flat_cached
    trained = 0
    with telemetry.timer("train.stream.seconds"):
        for chunk in chunks:
            trained += len(chunk)
            with parse_tally() as tally:
                for password, count in _aggregate_chunk(chunk).items():
                    observe(parse(password, tally), count)
    if telemetry.enabled:
        telemetry.incr("train.passwords", trained)
    return grammar


def _train_grammar_parallel(entries: List[Tuple[str, int]],
                            parser: FuzzyParser,
                            jobs: int) -> FuzzyGrammar:
    """Chunk the corpus over the delta pool and fold the deltas."""
    if not entries:
        return FuzzyGrammar()
    telemetry = obs.get()
    if telemetry.enabled:
        telemetry.incr("train.parallel")
        telemetry.incr("train.passwords", len(entries))
    # A few chunks per worker smooths over uneven parse costs without
    # inflating per-chunk messaging overhead.
    chunk_count = min(jobs * 4, len(entries))
    step = -(-len(entries) // chunk_count)
    chunks = [entries[i:i + step] for i in range(0, len(entries), step)]
    grammar = FuzzyGrammar()
    merger = DeltaMerger()
    with telemetry.timer("train.parallel.seconds"):
        with _training_pool(parser, jobs) as pool:
            # Ordered application: chunks preserve stream order, so
            # folding deltas in sequence reproduces the serial
            # grammar's key insertion order too — serialized models
            # are byte-identical, not just dict-equal.
            for delta in pool.imap(_delta_chunk, chunks):
                if telemetry.enabled:
                    telemetry.observe(
                        "train.chunk.seconds", delta.seconds
                    )
                with telemetry.timer("train.merge.seconds"):
                    merger.apply(grammar, delta)
    return grammar


def _train_streaming_parallel(
    chunks: Iterator[List[Tuple[str, int]]],
    parser: FuzzyParser,
    jobs: int,
) -> FuzzyGrammar:
    """Streamed chunks through the delta pool, bounded in-flight window.

    ``Pool.imap`` is deliberately avoided: its feeder thread drains the
    whole input iterable into the task queue, which for an out-of-core
    stream is exactly the materialisation streaming exists to avoid.
    Instead at most ``jobs * STREAM_INFLIGHT_PER_JOB`` chunks are in
    flight; results are popped FIFO, which is submission order, which
    preserves byte-identity of the folded grammar.
    """
    telemetry = obs.get()
    if telemetry.enabled:
        telemetry.incr("train.parallel")
    grammar = FuzzyGrammar()
    merger = DeltaMerger()
    trained = 0
    window: "deque" = deque()
    max_inflight = jobs * STREAM_INFLIGHT_PER_JOB

    def _fold(delta: GrammarDelta) -> None:
        if telemetry.enabled:
            telemetry.observe("train.chunk.seconds", delta.seconds)
        with telemetry.timer("train.merge.seconds"):
            merger.apply(grammar, delta)

    with telemetry.timer("train.parallel.seconds"):
        with _training_pool(parser, jobs) as pool:
            for chunk in chunks:
                if not chunk:
                    continue
                trained += len(chunk)
                window.append(pool.apply_async(_delta_chunk, (chunk,)))
                if len(window) >= max_inflight:
                    _fold(window.popleft().get())
            while window:
                _fold(window.popleft().get())
    if telemetry.enabled:
        telemetry.incr("train.passwords", trained)
    return grammar
