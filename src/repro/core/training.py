"""The fuzzyPSM training phase (paper Sec. IV-C).

Training is a single pass: build the base trie from the base dictionary
``B`` (lower-cased, length >= 3), then parse every password of the
training dictionary ``T`` and accumulate its derivation into the fuzzy
grammar's count tables.  The paper reports ~10 s per million training
passwords; this implementation is linear in total training characters.

Training is pure counting, so a password's parse can be counted once
with its summed multiplicity.  The training engine is built on that:

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
  (:meth:`FuzzyGrammar.fold`).

:func:`train_grammar_streaming` runs this engine over an iterator of
bounded chunks (see :func:`repro.datasets.loaders.stream_corpus_chunks`),
and :func:`train_grammar` runs it over an in-memory list as one chunk.
Dict insertion order is first-seen order, so counting a window's
passwords in table order inserts every key of the count tables where a
pass that parses and counts every entry in turn would, and
``add(key, n) == n x add(key, 1)``: the grammar's ``to_dict`` is
byte-identical to that reference pass, which the tests keep
(``tests/training_oracle.py``) and check the engine against
(``tests/test_training_streaming.py``).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, Optional, Tuple, Union

from repro import obs
from repro.core.grammar import FuzzyGrammar, count_parses
from repro.core.parser import FuzzyParser, parse_tally
from repro.core.trie import PrefixTrie

#: Training entries may carry a multiplicity, e.g. from a frequency file.
PasswordEntry = Union[str, Tuple[str, int]]

#: Default bound of the first-seen window, in distinct passwords
#: (``FuzzyPSMConfig.parse_cache_size``).  A window holds one summed
#: count per password, so 65,536 of them cost a few MiB.
DEFAULT_TRAIN_WINDOW = 65_536


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


def train_grammar(training_passwords: Iterable[PasswordEntry],
                  trie: PrefixTrie,
                  parser: Optional[FuzzyParser] = None,
                  skip_empty: bool = True,
                  window: int = DEFAULT_TRAIN_WINDOW) -> FuzzyGrammar:
    """Learn a :class:`FuzzyGrammar` from the training dictionary.

    Args:
        training_passwords: passwords (optionally ``(password, count)``
            pairs) from the sensitive-service leak ``T``; read into
            one list first unless it is one (a corpus that should not
            be held in memory goes to :func:`train_grammar_streaming`
            in chunks).
        trie: the base-dictionary trie from :func:`build_base_trie`.
        parser: override the parser (used by the parsing ablation).
        skip_empty: drop empty strings rather than raising.
        window: distinct passwords per first-seen window (see
            :class:`_Window`).

    Returns:
        the trained grammar, through the same engine as
        :func:`train_grammar_streaming` over one chunk; training is
        pure counting, so the same grammar object also supports the
        paper's update phase via :meth:`FuzzyGrammar.observe`.
    """
    return train_grammar_streaming(
        [training_passwords], trie, parser=parser, skip_empty=skip_empty,
        window=window,
    )


def train_grammar_streaming(
    chunks: Iterable[Iterable[PasswordEntry]],
    trie: PrefixTrie,
    parser: Optional[FuzzyParser] = None,
    skip_empty: bool = True,
    window: int = DEFAULT_TRAIN_WINDOW,
) -> FuzzyGrammar:
    """Learn a grammar from an out-of-core stream of entry chunks.

    ``chunks`` is an iterator of bounded batches (typically
    :func:`repro.datasets.loaders.stream_corpus_chunks`), consumed
    exactly once and never materialised, so peak memory is governed by
    the chunk size and the ``window`` of distinct passwords
    (:class:`_Window`) rather than the corpus.

    Each full window is parsed once per distinct password, counted in
    one batch and folded into the tables.  The grammar is
    byte-identical (``to_dict``) to a pass that parses and counts every
    entry of the concatenated chunks in turn.
    """
    if parser is None:
        parser = FuzzyParser(trie)
    feed = _Window(chunks, skip_empty, window)
    telemetry = obs.get()
    grammar = FuzzyGrammar()
    parse = parser.parse_flat
    with telemetry.timer("train.stream.seconds"):
        for table in feed:
            with parse_tally() as tally:
                grammar.fold(count_parses(zip(
                    map(parse, table, itertools.repeat(tally)),
                    table.values(),
                )))
    if telemetry.enabled:
        telemetry.incr("train.passwords", feed.entries)
        telemetry.incr("train.distinct", feed.distinct)
    return grammar
