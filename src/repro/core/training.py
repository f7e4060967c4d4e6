"""The fuzzyPSM training phase (paper Sec. IV-C).

Training is a single pass: build the base trie from the base dictionary
``B`` (lower-cased, length >= 3), then parse every password of the
training dictionary ``T`` and accumulate its derivation into the fuzzy
grammar's count tables.  The paper reports ~10 s per million training
passwords; this implementation is linear in total training characters.

Training is pure counting, so a password's parse can be counted once
with its summed multiplicity, and counting parallelises exactly.  The
training engine is built on both facts:

* a **bounded first-seen window** (:class:`_Window`) validates each
  entry straight into one ``password -> summed count`` table of at most
  ``window`` distinct passwords (``FuzzyPSMConfig.parse_cache_size``);
  each time the table fills, and at the end, every password in it is
  parsed once with the uncached :meth:`FuzzyParser.parse_flat` and
  counted with its summed count.  A Zipf-shaped corpus therefore pays
  one parse per distinct password per window, not one per occurrence,
  and memory is bounded by the window, not the corpus;
* a window's parses are counted in one batch
  (:func:`~repro.core.grammar.count_parses`: plain first-seen dicts
  and integer totals) and folded into the tables in one pass
  (:meth:`FuzzyGrammar.fold`);
* with ``jobs > 1`` each full window goes to a persistent worker pool
  as consecutive ``(password, count)`` slices; workers parse and count
  them and return the plain counts, which the parent folds in
  submission order.

Both :func:`train_grammar_streaming` (an iterator of bounded chunks,
see :func:`repro.datasets.loaders.stream_corpus_chunks`) and
:func:`train_grammar` with ``jobs > 1`` run through this engine.
:func:`train_grammar` without a pool keeps its own loop,
:func:`_train_grammar_serial`, which parses every occurrence: it is the
reference the engine is checked against, and it counts through
:meth:`FuzzyGrammar.observe`, the batch counter's oracle.  Dict
insertion order is first-seen order, so counting a window's passwords
in table order inserts every key of the count tables where the
per-occurrence pass would, and ``add(key, n) == n x add(key, 1)``:
every route produces a grammar whose ``to_dict`` is byte-identical to
the reference (``tests/test_training_streaming.py``).

Workers are initialised **once** per pool with the parent's word
indexes (:meth:`FuzzyParser.ensure_compiled_matchers` →
:meth:`FuzzyParser.from_compiled`), published as flat columns in a
shared-memory segment, not rebuilt from the word list.
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
from repro.core.grammar import FuzzyGrammar, ParseCounts, count_parses
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

#: Default bound of the first-seen window, in distinct passwords
#: (``FuzzyPSMConfig.parse_cache_size``).  A window holds one summed
#: count per password, so 65,536 of them cost a few MiB.
DEFAULT_TRAIN_WINDOW = 65_536

#: Corpora smaller than this train serially even when ``jobs > 1``.
#: Worker startup is a fixed cost (process start plus the
#: word-index attach): starting and stopping two workers took
#: 45 ms under fork and 235 ms under spawn on a 2-core host (Python
#: 3.11.7, a 10,000-word base dictionary), against a serial rate of
#: about 9 us per distinct password, parse and count, so the pool
#: needs thousands to tens of thousands of distinct passwords to pay
#: for itself.  Below the cutoff ``jobs`` degrades to the serial path
#: and emits ``training.parallel.fallback`` so the degradation is
#: visible in telemetry; pass ``parallel_threshold`` to override (tests
#: and tuning).
PARALLEL_MIN_ENTRIES = 50_000

#: In-flight slices per worker.  Each full window is cut into this many
#: slices per worker; the bound keeps every worker busy while the next
#: window is read, without letting ``apply_async`` results (or the
#: submitted slices themselves) pile up unboundedly — this, not
#: ``Pool.imap`` (whose feeder thread slurps the whole iterable into
#: the task queue), is what keeps pool training memory flat.
STREAM_INFLIGHT_PER_JOB = 4


def _available_cpus() -> int:
    """CPUs the pool could actually use (patchable in tests)."""
    return os.cpu_count() or 1


def _effective_jobs(jobs: int) -> int:
    """Clamp ``jobs`` to the host's CPU count.

    Workers beyond the core count cannot run concurrently — they only
    add process spawn, slice pickling and count IPC on top of the same
    serial compute.  A clamp to one worker routes to the serial engine,
    which the caller reports through the ``training.parallel.fallback``
    counter.
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


def is_count(count: object) -> bool:
    """Whether ``count`` is a valid multiplicity: a positive integer.

    ``bool`` subclasses ``int`` but is no count, and a float count
    would leave float totals that no model format can hold.
    """
    return isinstance(count, int) and not isinstance(count, bool) \
        and count > 0


def _invalid_count(password: str, count: object) -> ValueError:
    """The error for a training count that :func:`is_count` rejects.

    Such a count would silently corrupt every table it touches
    (:class:`~repro.util.freqdist.FrequencyDistribution` drops zeros and
    rejects negatives only per-table), so it is rejected with the
    offending entry named.
    """
    return ValueError(
        f"training count for {password!r} must be a positive integer, "
        f"got {count!r}"
    )


def _iter_entries(
    passwords: Iterable[PasswordEntry],
) -> Iterator[Tuple[str, int]]:
    """Normalise entries to ``(password, count)``, validating counts."""
    for entry in passwords:
        if isinstance(entry, str):
            yield entry, 1
        else:
            password, count = entry
            if not is_count(count):
                raise _invalid_count(password, count)
            yield password, count


class _Window:
    """The bounded first-seen window over a stream of entry chunks.

    Iterating yields ``password -> summed count`` tables in first-seen
    order, each holding at most ``size`` distinct passwords (a size
    below 1 counts as 1): an entry is validated straight into the
    current table, and a table is handed out when a new password
    arrives and it is full, and at the end.  ``entries`` counts the
    entries trained (skipped empties excluded) and ``distinct`` the
    passwords handed out, so ``distinct / entries`` is the share of
    entries that cost a parse.
    """

    __slots__ = ("_chunks", "_skip_empty", "_size", "entries", "distinct")

    def __init__(self, chunks: Iterable[Iterable[PasswordEntry]],
                 skip_empty: bool, size: int) -> None:
        self._chunks = chunks
        self._skip_empty = skip_empty
        self._size = max(1, size)
        self.entries = 0
        self.distinct = 0

    def __iter__(self) -> Iterator[Dict[str, int]]:
        size = self._size
        table: Dict[str, int] = {}
        get = table.get
        for chunk in self._chunks:
            if not isinstance(chunk, list):
                chunk = list(chunk)
            self.entries += len(chunk)
            for entry in chunk:
                # Loaders yield tuples: test for them first.
                if entry.__class__ is not tuple and isinstance(entry, str):
                    password, count = entry, 1
                else:
                    password, count = entry
                    # A positive plain int needs no call to is_count.
                    if count.__class__ is not int or count <= 0:
                        if not is_count(count):
                            raise _invalid_count(password, count)
                if not password:
                    if not self._skip_empty:
                        raise ValueError("cannot train on an empty password")
                    self.entries -= 1
                    continue
                seen = get(password)
                if seen is not None:
                    table[password] = seen + count
                elif len(table) < size:
                    table[password] = count
                else:
                    self.distinct += len(table)
                    yield table
                    table = {password: count}
                    get = table.get
        if table:
            self.distinct += len(table)
            yield table


#: Per-worker parser, created once by the pool initialiser so every
#: slice mapped to that worker reuses the same word index.
_WORKER_PARSER: Optional[FuzzyParser] = None


def _worker_init_shared(segment_name: str) -> None:
    """Pool initialiser: attach the parent's snapshot segment by name.

    The parent builds its word indexes once
    (:meth:`FuzzyParser.ensure_compiled_matchers`) and publishes their
    columns into a shared-memory segment (DESIGN.md §16); workers
    attach, rebuild the index dicts from the columns and wrap them with
    :meth:`FuzzyParser.from_compiled` without ever touching a pointer
    trie or the word list — or a pickle.  Per-process setup is a few
    C-level passes over the columns under ``fork`` and ``spawn``
    alike.
    """
    global _WORKER_PARSER
    state = _worker_attach_state(segment_name)
    _WORKER_PARSER = state.build_parser()


def _count_slice(
    items: List[Tuple[str, int]],
) -> Tuple[ParseCounts, float]:
    """Parse and count one slice of distinct ``(password, count)`` pairs.

    Returns the slice's :class:`~repro.core.grammar.ParseCounts` and
    the worker-side seconds spent on it: the parent's telemetry backend
    cannot see into pool processes, so each slice ships its own timing
    for the ``train.chunk.seconds`` histogram.
    """
    parser = _WORKER_PARSER
    assert parser is not None, "pool initialiser did not run"
    start = _now()
    parse = parser.parse_flat
    counts = count_parses([(parse(password), count)
                           for password, count in items])
    return counts, _now() - start


@contextmanager
def _training_pool(
    parser: FuzzyParser, jobs: int
) -> Iterator[multiprocessing.pool.Pool]:
    """The persistent worker pool for ``parser``, with segment lifetime.

    The parser's word indexes are published into a trie-only
    shared-memory segment (no grammar tables — training workers parse,
    they do not score) and every worker gets just the segment name;
    the segment is unlinked when the pool winds down.  The pool comes
    from :func:`repro.core.shm.mp_context`, so ``REPRO_START_METHOD``
    picks its start method.
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
                  parallel_threshold: Optional[int] = None,
                  window: int = DEFAULT_TRAIN_WINDOW) -> FuzzyGrammar:
    """Learn a :class:`FuzzyGrammar` from the training dictionary.

    Args:
        training_passwords: passwords (optionally ``(password, count)``
            pairs) from the sensitive-service leak ``T``.
        trie: the base-dictionary trie from :func:`build_base_trie`.
        parser: override the parser (used by the parsing ablation).
        skip_empty: drop empty strings rather than raising.
        jobs: number of worker processes.  ``None``, ``0`` and ``1``
            train serially, parsing every entry; ``N > 1`` trains the
            list through the windowed engine and its worker pool
            (:func:`train_grammar_streaming` over one chunk), which is
            exact (counting commutes — see
            :func:`~repro.core.grammar.count_parses`).  Small corpora
            fall back to the serial engine automatically: below
            ``parallel_threshold`` entries the pool's fixed startup
            cost exceeds the entire serial parse time.  ``jobs`` is
            also clamped to the host's CPU count, so a single-core
            host always trains serially (see :func:`_effective_jobs`).
        parallel_threshold: corpus-size cutoff for that fallback
            (default :data:`PARALLEL_MIN_ENTRIES`).
        window: distinct passwords per first-seen window when
            ``jobs > 1`` (see :class:`_Window`).

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
    return train_grammar_streaming(
        [training_passwords], trie, parser=parser, skip_empty=skip_empty,
        jobs=jobs, parallel_threshold=parallel_threshold, window=window,
    )


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
    window: int = DEFAULT_TRAIN_WINDOW,
) -> FuzzyGrammar:
    """Learn a grammar from an out-of-core stream of entry chunks.

    The streaming twin of :func:`train_grammar`: ``chunks`` is an
    iterator of bounded batches (typically
    :func:`repro.datasets.loaders.stream_corpus_chunks`), consumed
    exactly once and never materialised, so peak memory is governed by
    the chunk size and the ``window`` of distinct passwords
    (:class:`_Window`) rather than the corpus.

    Each full window is parsed once per distinct password and counted
    in one batch: in process, or with ``jobs > 1`` as consecutive
    slices through the worker pool, whose counts are folded in
    submission order.  Both produce a grammar byte-identical
    (``to_dict``) to :func:`train_grammar` over the concatenated
    entries.

    Parallel runs first read windows until ``parallel_threshold``
    entries have arrived; a stream that ends before reaching it trains
    serially instead (pool startup would dominate) and emits the
    ``training.parallel.fallback`` counter.  ``jobs`` is clamped to
    the host's CPU count the same way as in :func:`train_grammar`.
    """
    if jobs is not None and jobs < 0:
        raise ValueError(f"jobs must be non-negative, got {jobs}")
    if parser is None:
        parser = FuzzyParser(trie)
    feed = _Window(chunks, skip_empty, window)
    windows: Iterator[Dict[str, int]] = iter(feed)
    if not jobs or jobs == 1:
        grammar = _train_streaming_serial(windows, parser)
    else:
        grammar = _train_windows(feed, windows, parser, jobs,
                                 parallel_threshold)
    telemetry = obs.get()
    if telemetry.enabled:
        telemetry.incr("train.passwords", feed.entries)
        telemetry.incr("train.distinct", feed.distinct)
    return grammar


def _train_windows(feed: _Window, windows: Iterator[Dict[str, int]],
                   parser: FuzzyParser, jobs: int,
                   parallel_threshold: Optional[int]) -> FuzzyGrammar:
    """Route windows to the pool once the stream has proved big enough."""
    workers = _effective_jobs(jobs)
    if workers > 1:
        threshold = (
            PARALLEL_MIN_ENTRIES if parallel_threshold is None
            else parallel_threshold
        )
        buffered: List[Dict[str, int]] = []
        for table in windows:
            buffered.append(table)
            if feed.entries >= threshold:
                return _train_streaming_parallel(
                    itertools.chain(buffered, windows), parser, workers
                )
        windows = iter(buffered)
    # A single-core host (see :func:`_effective_jobs`), or a stream
    # that ended below break-even: the pool's startup cost would
    # dominate, so degrade to serial — visibly.
    _record_parallel_fallback()
    return _train_streaming_serial(windows, parser)


def _train_grammar_serial(entries: Iterator[Tuple[str, int]],
                          parser: FuzzyParser,
                          skip_empty: bool) -> FuzzyGrammar:
    """The reference pass: parse and count every entry, in order."""
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
        # Every entry is parsed: nothing is aggregated on this path.
        telemetry.incr("train.passwords", trained)
        telemetry.incr("train.distinct", trained)
    return grammar


def _train_streaming_serial(
    windows: Iterator[Dict[str, int]],
    parser: FuzzyParser,
) -> FuzzyGrammar:
    """In-process windowed training: parse a window, count it, fold."""
    telemetry = obs.get()
    grammar = FuzzyGrammar()
    parse = parser.parse_flat
    with telemetry.timer("train.stream.seconds"):
        for table in windows:
            with parse_tally() as tally:
                grammar.fold(count_parses(zip(
                    map(parse, table, itertools.repeat(tally)),
                    table.values(),
                )))
    return grammar


def _train_streaming_parallel(
    windows: Iterable[Dict[str, int]],
    parser: FuzzyParser,
    jobs: int,
) -> FuzzyGrammar:
    """Windows through the worker pool, as slices in a bounded window.

    Each table is cut into consecutive ``(password, count)`` slices,
    ``STREAM_INFLIGHT_PER_JOB`` per worker.  ``Pool.imap`` is
    deliberately avoided: its feeder thread drains the whole input
    iterable into the task queue, which for an out-of-core stream is
    exactly the materialisation streaming exists to avoid.  Instead at
    most ``jobs * STREAM_INFLIGHT_PER_JOB`` slices are in flight;
    results are popped FIFO, which is submission order, so folding
    each slice's counts as it arrives inserts every key where the
    serial pass would.
    """
    telemetry = obs.get()
    if telemetry.enabled:
        telemetry.incr("train.parallel")
    grammar = FuzzyGrammar()
    inflight: "deque[multiprocessing.pool.AsyncResult]" = deque()
    max_inflight = jobs * STREAM_INFLIGHT_PER_JOB

    def _fold(result: Tuple[ParseCounts, float]) -> None:
        counts, seconds = result
        if telemetry.enabled:
            telemetry.observe("train.chunk.seconds", seconds)
        with telemetry.timer("train.merge.seconds"):
            grammar.fold(counts)

    with telemetry.timer("train.parallel.seconds"):
        with _training_pool(parser, jobs) as pool:
            for table in windows:
                items = list(table.items())
                step = -(-len(items) // max_inflight)
                for start in range(0, len(items), step):
                    inflight.append(pool.apply_async(
                        _count_slice, (items[start:start + step],)
                    ))
                    if len(inflight) >= max_inflight:
                        _fold(inflight.popleft().get())
            while inflight:
                _fold(inflight.popleft().get())
    return grammar
