"""A counting frequency distribution with probability queries.

Used everywhere a model learns "how often did X occur in training":
fuzzy-PCFG rule tables, traditional PCFG segment tables, the ideal
meter's empirical distribution, and corpus statistics.  It is a thin,
explicit wrapper over a dict that adds probability normalisation,
rank queries and additive smoothing in one place.
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, Iterable, Iterator, List, Optional, Tuple, TypeVar

T = TypeVar("T", bound=Hashable)


class FrequencyDistribution(Generic[T]):
    """Counts hashable items and answers probability / rank queries.

    >>> fd = FrequencyDistribution(["a", "b", "a", "a"])
    >>> fd.count("a"), fd.total
    (3, 4)
    >>> fd.probability("a")
    0.75
    >>> fd.most_common(1)
    [('a', 3)]
    """

    __slots__ = ("_counts", "_total")

    def __init__(self, items: Optional[Iterable[T]] = None) -> None:
        self._counts: Dict[T, int] = {}
        self._total = 0
        if items is not None:
            self.update(items)

    # --- mutation ---------------------------------------------------

    def add(self, item: T, count: int = 1) -> None:
        """Record ``count`` occurrences of ``item`` (count must be >= 0)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return
        self._counts[item] = self._counts.get(item, 0) + count
        self._total += count

    def update(self, items: Iterable[T]) -> None:
        for item in items:
            self.add(item)

    @classmethod
    def from_counts(
        cls, counts: Iterable[Tuple[T, int]]
    ) -> "FrequencyDistribution[T]":
        """Bulk constructor from ``(item, count)`` pairs.

        The fast path for deserialising large count tables (the binary
        model loader rebuilds hundreds of thousands of entries): one
        dict build plus one sum instead of per-item :meth:`add` calls.
        Iteration order becomes the table's insertion order, and the
        same validation as :meth:`add` applies — zero counts are
        dropped, negative counts are rejected.
        """
        table: Dict[T, int] = {}
        for item, count in counts:
            if count < 0:
                raise ValueError("count must be non-negative")
            if count:
                table[item] = table.get(item, 0) + count
        dist: "FrequencyDistribution[T]" = cls()
        dist._counts = table
        dist._total = sum(table.values())
        return dist

    # --- queries ----------------------------------------------------

    @property
    def total(self) -> int:
        """Total number of observations (with multiplicity)."""
        return self._total

    @property
    def support_size(self) -> int:
        """Number of distinct items observed."""
        return len(self._counts)

    def count(self, item: T) -> int:
        return self._counts.get(item, 0)

    def probability(self, item: T) -> float:
        """Maximum-likelihood probability; 0.0 for unseen items."""
        if self._total == 0:
            return 0.0
        return self._counts.get(item, 0) / self._total

    def smoothed_probability(self, item: T, alpha: float = 1.0,
                             vocabulary_size: Optional[int] = None) -> float:
        """Additive (Laplace) smoothed probability.

        ``vocabulary_size`` defaults to the observed support size, which
        gives every *seen* item a small discount and unseen items mass
        ``alpha / (total + alpha * V)``.
        """
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        vocab = vocabulary_size if vocabulary_size is not None else len(self._counts)
        denominator = self._total + alpha * vocab
        if denominator == 0:
            return 0.0
        return (self._counts.get(item, 0) + alpha) / denominator

    def most_common(self, n: Optional[int] = None) -> List[Tuple[T, int]]:
        """Items sorted by descending count (ties broken by item repr)."""
        ranked = sorted(
            self._counts.items(), key=lambda kv: (-kv[1], repr(kv[0]))
        )
        return ranked if n is None else ranked[:n]

    def items(self) -> Iterator[Tuple[T, int]]:
        return iter(self._counts.items())

    def counts_of_counts(self) -> Dict[int, int]:
        """Map ``r -> number of items seen exactly r times`` (for Good-Turing)."""
        out: Dict[int, int] = {}
        for count in self._counts.values():
            out[count] = out.get(count, 0) + 1
        return out

    # --- dunder -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Count-table equality (same items with the same counts)."""
        if not isinstance(other, FrequencyDistribution):
            return NotImplemented
        return self._counts == other._counts

    __hash__ = None  # mutable container

    def __contains__(self, item: object) -> bool:
        return item in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    def __iter__(self) -> Iterator[T]:
        return iter(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrequencyDistribution(support={len(self._counts)}, "
            f"total={self._total})"
        )
