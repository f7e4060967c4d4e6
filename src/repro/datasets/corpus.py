"""The password corpus container.

A corpus is a multiset of passwords (a leaked list has many duplicate
entries — that is the signal the ideal meter and all trained models
feed on) plus service metadata mirroring Table VII's columns.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.util.freqdist import FrequencyDistribution


class PasswordCorpus:
    """A multiset of passwords with metadata.

    >>> corpus = PasswordCorpus(["123456", "123456", "password"], name="demo")
    >>> corpus.total, corpus.unique
    (3, 2)
    >>> corpus.count("123456")
    2
    """

    def __init__(self, passwords: Union[Iterable[str], Mapping[str, int]],
                 name: str = "unnamed",
                 service: str = "",
                 location: str = "",
                 language: str = "") -> None:
        self.name = name
        self.service = service
        self.location = location
        self.language = language
        self._distribution: FrequencyDistribution[str] = FrequencyDistribution()
        if isinstance(passwords, Mapping):
            for password, count in passwords.items():
                self._distribution.add(password, count)
        else:
            self._distribution.update(passwords)

    # --- basic queries -----------------------------------------------

    @property
    def total(self) -> int:
        """Total entries, duplicates included (Table VII 'Total PWs')."""
        return self._distribution.total

    @property
    def unique(self) -> int:
        """Distinct passwords (Table VII 'Unique PWs')."""
        return self._distribution.support_size

    def count(self, password: str) -> int:
        return self._distribution.count(password)

    def frequency(self, password: str) -> float:
        return self._distribution.probability(password)

    def __contains__(self, password: object) -> bool:
        return password in self._distribution

    def __len__(self) -> int:
        return self._distribution.support_size

    def __iter__(self) -> Iterator[str]:
        """Iterate distinct passwords."""
        return iter(self._distribution)

    def items(self) -> Iterator[Tuple[str, int]]:
        """(password, count) pairs."""
        return self._distribution.items()

    def most_common(self, n: Optional[int] = None) -> List[Tuple[str, int]]:
        return self._distribution.most_common(n)

    def counts(self) -> Dict[str, int]:
        """A fresh ``password -> count`` dict."""
        return dict(self._distribution.items())

    def unique_passwords(self) -> List[str]:
        return list(self._distribution)

    def expand(self) -> Iterator[str]:
        """Iterate entries with multiplicity (memory-light)."""
        for password, count in self._distribution.items():
            for _ in range(count):
                yield password

    def iter_chunks(
        self, chunk_size: int
    ) -> Iterator[List[Tuple[str, int]]]:
        """Yield ``(password, count)`` batches of at most ``chunk_size``.

        The in-memory twin of
        :func:`repro.datasets.loaders.stream_corpus_chunks`, so an
        already-loaded corpus can feed
        :func:`repro.core.training.train_grammar_streaming` through the
        same chunked interface as an on-disk file.
        """
        if chunk_size <= 0:
            raise ValueError(
                f"chunk_size must be positive, got {chunk_size}"
            )
        chunk: List[Tuple[str, int]] = []
        for entry in self._distribution.items():
            chunk.append(entry)
            if len(chunk) >= chunk_size:
                yield chunk
                chunk = []
        if chunk:
            yield chunk

    # --- derived corpora ------------------------------------------------

    def split(self, fractions: Sequence[float],
              rng: Optional[random.Random] = None
              ) -> List["PasswordCorpus"]:
        """Randomly partition entries (with multiplicity) by fractions.

        The paper's methodology splits a dataset "into equally four
        parts" and trains on one quarter while testing on another;
        ``corpus.split([0.25, 0.25, 0.25, 0.25])`` reproduces that.

        >>> corpus = PasswordCorpus(["a"] * 50 + ["b"] * 50, name="even")
        >>> parts = corpus.split([0.5, 0.5], random.Random(7))
        >>> [part.total for part in parts]
        [50, 50]
        """
        if not fractions:
            raise ValueError("need at least one fraction")
        if any(f <= 0 for f in fractions):
            raise ValueError("fractions must be positive")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise ValueError("fractions must sum to 1")
        rng = rng or random.Random(0)
        entries = list(self.expand())
        rng.shuffle(entries)
        parts: List[PasswordCorpus] = []
        start = 0
        cumulative = 0.0
        for index, fraction in enumerate(fractions):
            cumulative += fraction
            end = (
                len(entries)
                if index == len(fractions) - 1
                else int(round(cumulative * len(entries)))
            )
            parts.append(
                PasswordCorpus(
                    entries[start:end],
                    name=f"{self.name}[part{index + 1}]",
                    service=self.service,
                    location=self.location,
                    language=self.language,
                )
            )
            start = end
        return parts

    def merged_with(self, other: "PasswordCorpus",
                    name: Optional[str] = None) -> "PasswordCorpus":
        """Union with multiplicities (training-set composition)."""
        counts = self.counts()
        for password, count in other.items():
            counts[password] = counts.get(password, 0) + count
        return PasswordCorpus(
            counts,
            name=name or f"{self.name}+{other.name}",
            service=self.service,
            location=self.location,
            language=self.language,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PasswordCorpus(name={self.name!r}, unique={self.unique}, "
            f"total={self.total})"
        )
