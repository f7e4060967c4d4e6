"""Reading and writing password corpora.

Two on-disk formats are supported, covering how leaked lists circulate:

* **plain** — one password per line, duplicates repeated;
* **counted** — ``<count> <password>`` per line (the output of
  ``sort | uniq -c``), password may contain spaces after the first gap.

If you have the real Rockyou/Tianya/... lists, load them with these
functions and every experiment runs on the genuine data instead of the
synthetic stand-ins.

Two access regimes share the same line-level semantics:

* :func:`load_corpus` materialises a whole file into a
  :class:`~repro.datasets.corpus.PasswordCorpus` (deduplicated counts)
  — right for evaluation sets and anything that fits in memory;
* :func:`iter_password_entries` / :func:`stream_corpus_chunks` stream
  ``(password, count)`` entries off disk without materialising the
  corpus — the out-of-core feed for
  :func:`repro.core.training.train_grammar_streaming`, where corpora
  are RockYou-scale and memory must stay flat.

Both regimes read the file through one block reader
(:func:`_read_blocks`), which parses a block of lines with one
comprehension, so they apply identical filtering (empty lines,
malformed counted lines, zero counts, over-length passwords) in
identical order: a streamed pass sees exactly the entries a
``load_corpus(...).expand()`` pass would.  A count is ASCII digits only, as ``uniq -c`` writes it; a
line whose count is anything else (``² sup``) is malformed and dropped.
"""

from __future__ import annotations

import os
from itertools import chain, islice
from typing import Iterable, Iterator, List, Optional, Tuple

from repro import obs
from repro.obs.core import now as _now, peak_rss_kib
from repro.datasets.corpus import PasswordCorpus

#: Lines inspected by the ``auto`` format sniffer (both regimes).
_SNIFF_LINES = 100

#: Lines parsed per block by :func:`_read_blocks` (at least
#: ``_SNIFF_LINES``, so the sniffer sees its sample in the first block).
_BLOCK_LINES = 8_192

#: Default streaming batch size: large enough to amortise the per-chunk
#: cost of the loader and the trainer's window, small enough that a
#: chunk of 64-char-max passwords stays well under typical RSS budgets.
DEFAULT_STREAM_CHUNK = 50_000


def _parse_block(lines: List[str], counted: bool,
                 max_length: int) -> List[Tuple[str, int]]:
    """One block of raw lines as ``(password, count)`` entries.

    Empty lines, malformed counted lines, zero counts (as
    :class:`~repro.datasets.corpus.PasswordCorpus` drops them) and
    passwords longer than ``max_length`` are dropped.
    """
    if counted:
        return [
            (password, int(head))
            for line in lines
            for head, _, password in (line.strip().partition(" "),)
            if password and len(password) <= max_length
            and head.isascii() and head.isdigit() and head.strip("0")
        ]
    return [
        (password, 1)
        for line in lines
        for password in (line.rstrip("\r\n"),)
        if password and len(password) <= max_length
    ]


def _read_blocks(path: str, fmt: str, encoding: str, errors: str,
                 max_length: int) -> Iterator[List[Tuple[str, int]]]:
    """Parse a corpus file ``_BLOCK_LINES`` lines at a time.

    ``fmt="auto"`` sniffs the first block's first ``_SNIFF_LINES``
    lines.  At most one block of lines is held at a time, so
    RockYou-scale files read in constant memory.
    """
    if fmt not in ("plain", "counted", "auto"):
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, encoding=encoding, errors=errors) as handle:
        block = list(islice(handle, _BLOCK_LINES))
        if fmt == "auto":
            fmt = _sniff_format(
                line.rstrip("\r\n") for line in block[:_SNIFF_LINES]
            )
        counted = fmt == "counted"
        while block:
            yield _parse_block(block, counted, max_length)
            block = list(islice(handle, _BLOCK_LINES))


def iter_password_entries(
    path: str, fmt: str = "auto", encoding: str = "utf-8",
    errors: str = "replace", max_length: int = 64,
) -> Iterator[Tuple[str, int]]:
    """Stream ``(password, count)`` entries from a corpus file.

    The out-of-core reader: one block of lines is held at a time, so
    RockYou-scale files stream in constant memory.  Filtering matches
    :func:`load_corpus` exactly; duplicates are **not** merged — a
    plain file with ``password`` on three lines yields three entries,
    like ``PasswordCorpus.expand``.
    """
    return chain.from_iterable(
        _read_blocks(path, fmt, encoding, errors, max_length)
    )


def stream_corpus_chunks(
    path: str, chunk_size: int = DEFAULT_STREAM_CHUNK,
    fmt: str = "auto", encoding: str = "utf-8",
    errors: str = "replace", max_length: int = 64,
) -> Iterator[List[Tuple[str, int]]]:
    """Stream a corpus file as bounded ``(password, count)`` batches.

    The feed for ``train_grammar_streaming`` and ``repro train
    --stream-chunk``: each yielded list holds at most ``chunk_size``
    entries, so downstream memory is governed by the chunk size, never
    the corpus.  Telemetry (when enabled) records per-chunk read
    latency (``stream.chunk.seconds``), chunk and entry counters
    (``stream.chunks`` / ``stream.entries``) and the process RSS
    high-water mark after each chunk (``stream.rss_kib`` — the
    flat-memory evidence the training bench asserts on).
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    telemetry = obs.get()
    entries = iter_password_entries(
        path, fmt=fmt, encoding=encoding, errors=errors,
        max_length=max_length,
    )
    while True:
        start = _now()
        chunk = list(islice(entries, chunk_size))
        if not chunk:
            return
        if telemetry.enabled:
            telemetry.observe("stream.chunk.seconds", _now() - start)
            telemetry.incr("stream.chunks")
            telemetry.incr("stream.entries", len(chunk))
            telemetry.observe("stream.rss_kib", float(peak_rss_kib()))
        yield chunk


def load_corpus(path: str, fmt: str = "auto", name: Optional[str] = None,
                encoding: str = "utf-8", errors: str = "replace",
                max_length: int = 64) -> PasswordCorpus:
    """Load a corpus from disk.

    Args:
        path: file to read.
        fmt: ``plain``, ``counted`` or ``auto`` (sniff the first lines).
        name: corpus name (defaults to the file stem).
        max_length: lines longer than this are dropped (leak files
            contain binary junk; the paper caps Lmax around 20-30).
    """
    name = name or os.path.splitext(os.path.basename(path))[0]
    counts = {}
    for password, count in iter_password_entries(
        path, fmt=fmt, encoding=encoding, errors=errors,
        max_length=max_length,
    ):
        counts[password] = counts.get(password, 0) + count
    return PasswordCorpus(counts, name=name)


def save_corpus(corpus: PasswordCorpus, path: str,
                fmt: str = "counted", encoding: str = "utf-8") -> None:
    """Write a corpus; ``counted`` is compact, ``plain`` is exact."""
    if fmt not in ("plain", "counted"):
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding=encoding) as handle:
        if fmt == "counted":
            for password, count in corpus.most_common():
                handle.write(f"{count} {password}\n")
        else:
            for password in corpus.expand():
                handle.write(password + "\n")


def _sniff_format(lines: Iterable[str]) -> str:
    """Guess ``counted`` when the leading token of most lines is a count."""
    sample = [line for line in list(lines)[:_SNIFF_LINES] if line.strip()]
    if not sample:
        return "plain"
    counted = 0
    for line in sample:
        head, _, rest = line.strip().partition(" ")
        if head.isascii() and head.isdigit() and rest:
            counted += 1
    return "counted" if counted >= 0.9 * len(sample) else "plain"
