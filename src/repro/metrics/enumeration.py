"""Lazy descending-probability enumeration over factored models.

Probabilistic password models (fuzzy PCFG, traditional PCFG, Markov)
factor a guess's probability into a product of independent choices.
Generating guesses in decreasing probability order is then the classic
"next function" problem (Weir et al., S&P 2009): explore the product
lattice with a max-heap, expanding one index at a time.

Two generic primitives live here:

* :func:`descending_products` — enumerate the cells of a product of
  individually-sorted factor lists in decreasing product order.
* :func:`merge_weighted_descending` — merge several already-descending
  streams, each scaled by an outer weight (e.g. per-structure streams
  weighted by structure probability).

Both are lazy: memory is bounded by the heap frontier, not the product
space, so ``10**6``-guess sessions are cheap.  Two structures grow
with the session, without a cap: a :class:`LazyDescendingList` keeps
every item read so far, and :func:`deduplicate_guesses` keeps every
distinct guess it has yielded.

Factors are trusted to be sorted descending with non-negative
probabilities; every caller builds them that way from a model's
tables, and :func:`descending_products` does not check.
"""

from __future__ import annotations

import heapq
import itertools
from typing import (
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
)

from repro import obs

T = TypeVar("T")

#: A factor is a probability-sorted (descending) list of (value, prob).
Factor = Sequence[Tuple[T, float]]


class LazyDescendingList(Generic[T]):
    """An indexable view over a descending ``(value, prob)`` iterator.

    Items are pulled from the underlying iterator on demand and cached,
    so several consumers (e.g. the slot of length 8 appearing in many
    base structures) can share one enumeration.  The buffer grows with
    the deepest index requested.
    """

    def __init__(self, stream: Iterator[Tuple[T, float]]) -> None:
        self._stream = stream
        self._buffer: List[Tuple[T, float]] = []
        self._exhausted = False

    def get(self, index: int) -> Optional[Tuple[T, float]]:
        """The ``index``-th item, or ``None`` when the stream is shorter."""
        while len(self._buffer) <= index and not self._exhausted:
            item = next(self._stream, None)
            if item is None:
                self._exhausted = True
            else:
                self._buffer.append(item)
        if index < len(self._buffer):
            return self._buffer[index]
        return None


#: What :func:`descending_products` accepts per slot: a materialised
#: factor list or a shared lazy stream view.
FactorLike = Union[Factor[T], LazyDescendingList[T]]


def _factor_item(
    factor: "FactorLike[T]", index: int
) -> Optional[Tuple[T, float]]:
    """Index into either a sequence factor or a LazyDescendingList."""
    if isinstance(factor, LazyDescendingList):
        return factor.get(index)
    if index < len(factor):
        return factor[index]
    return None


def descending_products(
    factors: "Sequence[FactorLike[T]]",
) -> Iterator[Tuple[Tuple[T, ...], float]]:
    """Enumerate the product of sorted factors in decreasing order.

    Yields ``(values, product_probability)``.  With ``k`` factors, the
    heap frontier grows by at most ``k`` entries per pop.

    >>> letters = [("a", 0.7), ("b", 0.3)]
    >>> digits = [("1", 0.9), ("2", 0.1)]
    >>> [(v, round(p, 2)) for v, p in descending_products([letters, digits])]
    [(('a', '1'), 0.63), (('b', '1'), 0.27), (('a', '2'), 0.07), (('b', '2'), 0.03)]
    """
    if not factors:
        yield (), 1.0
        return

    def probability_of(indices: Tuple[int, ...]) -> float:
        product = 1.0
        for factor, index in zip(factors, indices):
            item = _factor_item(factor, index)
            assert item is not None
            product *= item[1]
        return product

    start = tuple(0 for _ in factors)
    if any(_factor_item(factor, 0) is None for factor in factors):
        return
    # Max-heap via negated probability; tie-break on the index vector to
    # keep the enumeration deterministic.
    heap: List[Tuple[float, Tuple[int, ...]]] = [
        (-probability_of(start), start)
    ]
    # The backend is pinned at generator start: enumeration sweeps run
    # entirely inside one telemetry session (or none at all).
    telemetry = obs.get()
    count = len(factors)
    while heap:
        if telemetry.enabled:
            telemetry.incr("enum.products.pops")
        negative_probability, indices = heapq.heappop(heap)
        popped = [
            _factor_item(factor, index)
            for factor, index in zip(factors, indices)
        ]
        assert all(item is not None for item in popped)
        values = tuple(item[0] for item in popped if item is not None)
        yield values, -negative_probability
        # Canonical-parent successor rule: ``v + e_j`` is generated only
        # by the parent whose coordinates after ``j`` are all zero, i.e.
        # only positions at or after the rightmost non-zero coordinate
        # advance.  Every lattice cell still enters the heap exactly
        # once — but from a single parent, so the per-guess seen-set
        # (whose memory grew with guesses emitted) is gone, and pops
        # push at most ``k - rightmost`` successors instead of ``k``.
        rightmost = 0
        for position in range(count - 1, -1, -1):
            if indices[position]:
                rightmost = position
                break
        for position in range(rightmost, count):
            successor_index = indices[position] + 1
            if _factor_item(factors[position], successor_index) is None:
                continue
            successor = (
                indices[:position]
                + (successor_index,)
                + indices[position + 1:]
            )
            heapq.heappush(
                heap, (-probability_of(successor), successor)
            )


def merge_weighted_descending(
    streams: Iterable[Tuple[float, Iterator[Tuple[T, float]]]],
) -> Iterator[Tuple[T, float]]:
    """Merge descending ``(item, prob)`` streams scaled by outer weights.

    Each input is ``(weight, iterator)``; the merged stream yields
    ``(item, weight * prob)`` in globally decreasing order.  Streams
    with zero weight are skipped entirely.

    >>> a = iter([("x", 1.0), ("y", 0.5)])
    >>> b = iter([("z", 0.9)])
    >>> list(merge_weighted_descending([(0.5, a), (1.0, b)]))
    [('z', 0.9), ('x', 0.5), ('y', 0.25)]
    """
    heap: List[Tuple[float, int, T, Iterator[Tuple[T, float]], float]] = []
    counter = itertools.count()  # tie-breaker: insertion order
    for weight, stream in streams:
        if weight <= 0:
            continue
        first = next(stream, None)
        if first is None:
            continue
        item, probability = first
        heapq.heappush(
            heap, (-weight * probability, next(counter), item, stream, weight)
        )
    telemetry = obs.get()
    while heap:
        negative_probability, _, item, stream, weight = heapq.heappop(heap)
        if telemetry.enabled:
            telemetry.incr("enum.merge.yields")
        yield item, -negative_probability
        following = next(stream, None)
        if following is not None:
            next_item, probability = following
            heapq.heappush(
                heap,
                (-weight * probability, next(counter), next_item, stream, weight),
            )


def deduplicate_guesses(
    guesses: Iterator[Tuple[str, float]],
) -> Iterator[Tuple[str, float]]:
    """Drop repeated surface strings, keeping the first (most probable).

    Distinct derivations occasionally produce the same password; a
    cracking session tries each string once, so enumeration-based guess
    numbers must deduplicate.  The seen-set grows with every distinct
    guess.
    """
    seen: Set[str] = set()
    for guess, probability in guesses:
        if guess in seen:
            continue
        seen.add(guess)
        yield guess, probability
