"""Non-parametric rank correlation (paper Sec. II-C).

The paper evaluates a meter by the correlation between its ranking of
the test passwords and the practically-ideal meter's ranking, using

* **Spearman rho** — Pearson correlation between rank vectors, with
  tied values assigned the average of their positions, and
* **Kendall tau-b** — the concordant/discordant pair statistic with the
  tie-corrected denominator of Adler (1957).

Both are implemented from scratch: Spearman via ranking + Pearson,
Kendall via Knight's O(n log n) merge-sort algorithm so the top-k
curves over 10^4-10^5 passwords stay fast.
"""

from __future__ import annotations

import math
from typing import List, Sequence


def rankdata(values: Sequence[float]) -> List[float]:
    """Average ranks (1-based); ties share the mean of their positions.

    >>> rankdata([10.0, 20.0, 20.0, 30.0])
    [1.0, 2.5, 2.5, 4.0]
    """
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        average_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = average_rank
        i = j + 1
    return ranks


def _pearson(x: Sequence[float], y: Sequence[float]) -> float:
    n = len(x)
    mean_x = sum(x) / n
    mean_y = sum(y) / n
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(x, y))
    var_x = sum((a - mean_x) ** 2 for a in x)
    var_y = sum((b - mean_y) ** 2 for b in y)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)


def spearman_rho(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman's rho in [-1, 1]; 1 = perfect agreement.

    >>> spearman_rho([1, 2, 3], [10, 20, 30])
    1.0
    >>> spearman_rho([1, 2, 3], [30, 20, 10])
    -1.0
    """
    if len(x) != len(y):
        raise ValueError("vectors must have equal length")
    if len(x) < 2:
        raise ValueError("need at least two observations")
    return _pearson(rankdata(x), rankdata(y))


def _count_inversions(values: List[float]) -> int:
    """Number of (i < j, values[i] > values[j]) pairs, by merge sort."""

    def sort(lo: int, hi: int) -> int:
        if hi - lo <= 1:
            return 0
        mid = (lo + hi) // 2
        inversions = sort(lo, mid) + sort(mid, hi)
        merged = []
        i, j = lo, mid
        while i < mid and j < hi:
            if values[i] <= values[j]:
                merged.append(values[i])
                i += 1
            else:
                inversions += mid - i
                merged.append(values[j])
                j += 1
        merged.extend(values[i:mid])
        merged.extend(values[j:hi])
        values[lo:hi] = merged
        return inversions

    return sort(0, len(values))


def _tie_pair_count(values: Sequence[float]) -> int:
    """Number of pairs tied on ``values``."""
    counts: dict = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    return sum(c * (c - 1) // 2 for c in counts.values())


def _joint_tie_pair_count(x: Sequence[float], y: Sequence[float]) -> int:
    counts: dict = {}
    for pair in zip(x, y):
        counts[pair] = counts.get(pair, 0) + 1
    return sum(c * (c - 1) // 2 for c in counts.values())


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> float:
    """Kendall's tau-b in [-1, 1], tie-corrected (Knight's algorithm).

    ``tau = (P - Q) / sqrt((P + Q + Tx) * (P + Q + Ty))`` where ``P``/``Q``
    are concordant/discordant pair counts and ``Tx``/``Ty`` count pairs
    tied on one vector only (the paper's Eq. 7).

    >>> kendall_tau([1, 2, 3, 4], [1, 2, 3, 4])
    1.0
    >>> kendall_tau([1, 2, 3, 4], [4, 3, 2, 1])
    -1.0
    >>> round(kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]), 4)
    0.6667
    """
    if len(x) != len(y):
        raise ValueError("vectors must have equal length")
    n = len(x)
    if n < 2:
        raise ValueError("need at least two observations")

    total_pairs = n * (n - 1) // 2
    ties_x = _tie_pair_count(x)
    ties_y = _tie_pair_count(y)
    ties_xy = _joint_tie_pair_count(x, y)

    # Sort by x, then y; discordant pairs among x-untied pairs are the
    # inversions of the y sequence.
    order = sorted(range(n), key=lambda i: (x[i], y[i]))
    y_sorted = [y[i] for i in order]
    discordant = _count_inversions(list(y_sorted))

    # P + Q = pairs untied on both = total - ties_x - ties_y + ties_xy.
    untied_both = total_pairs - ties_x - ties_y + ties_xy
    concordant = untied_both - discordant
    numerator = concordant - discordant

    denom_x = total_pairs - ties_x
    denom_y = total_pairs - ties_y
    if denom_x == 0 or denom_y == 0:
        return 0.0
    return numerator / math.sqrt(denom_x * denom_y)
