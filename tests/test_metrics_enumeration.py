"""Unit tests for descending-product enumeration and merging."""

import itertools

import pytest

from repro.metrics.enumeration import (
    LazyDescendingList,
    deduplicate_guesses,
    descending_products,
    merge_weighted_descending,
)


class TestDescendingProducts:
    def test_two_factor_example(self):
        letters = [("a", 0.7), ("b", 0.3)]
        digits = [("1", 0.9), ("2", 0.1)]
        result = list(descending_products([letters, digits]))
        values = [v for v, _ in result]
        assert values == [("a", "1"), ("b", "1"), ("a", "2"), ("b", "2")]

    def test_probabilities_descending(self):
        factors = [
            [("x", 0.5), ("y", 0.3), ("z", 0.2)],
            [("1", 0.6), ("2", 0.4)],
            [("!", 0.9), ("?", 0.1)],
        ]
        probs = [p for _, p in descending_products(factors)]
        assert probs == sorted(probs, reverse=True)
        assert len(probs) == 12

    def test_exhaustive_and_correct_products(self):
        factors = [
            [("a", 0.6), ("b", 0.4)],
            [("c", 0.8), ("d", 0.2)],
        ]
        result = dict(descending_products(factors))
        expected = {
            (x, y): px * py
            for (x, px), (y, py) in itertools.product(*factors)
        }
        assert result == pytest.approx(expected)

    def test_no_factors(self):
        assert list(descending_products([])) == [((), 1.0)]

    def test_empty_factor_yields_nothing(self):
        assert list(descending_products([[], [("a", 1.0)]])) == []

    def test_large_product_is_lazy(self):
        # 20 factors of 10 options each: 10^20 cells; taking 5 must be
        # instant and correct.
        factor = [(i, 1.0 / (i + 1)) for i in range(10)]
        stream = descending_products([factor] * 20)
        top = [next(stream) for _ in range(5)]
        assert top[0][0] == tuple([0] * 20)
        probs = [p for _, p in top]
        assert probs == sorted(probs, reverse=True)


class TestLazyList:
    def test_caches_and_shares(self):
        calls = []

        def stream():
            for i in range(3):
                calls.append(i)
                yield (i, 1.0 / (i + 1))

        lazy = LazyDescendingList(stream())
        assert lazy.get(0) == (0, 1.0)
        assert lazy.get(0) == (0, 1.0)
        assert calls == [0]
        assert lazy.get(2) == (2, pytest.approx(1 / 3))
        assert lazy.get(3) is None

    def test_products_over_lazy_lists(self):
        lazy = LazyDescendingList(iter([("a", 0.9), ("b", 0.1)]))
        result = list(descending_products([lazy, [("x", 1.0)]]))
        assert [v for v, _ in result] == [("a", "x"), ("b", "x")]


class TestMerge:
    def test_weighted_merge_order(self):
        a = iter([("x", 1.0), ("y", 0.5)])
        b = iter([("z", 0.9)])
        merged = list(merge_weighted_descending([(0.5, a), (1.0, b)]))
        assert merged == [("z", 0.9), ("x", 0.5), ("y", 0.25)]

    def test_zero_weight_skipped(self):
        a = iter([("x", 1.0)])
        merged = list(merge_weighted_descending([(0.0, a)]))
        assert merged == []

    def test_empty_streams(self):
        assert list(merge_weighted_descending([])) == []
        assert list(merge_weighted_descending([(1.0, iter([]))])) == []

    def test_merged_streams_globally_descending(self):
        streams = [
            (0.6, iter([("a", 1.0), ("b", 0.1)])),
            (0.4, iter([("c", 0.9), ("d", 0.5)])),
        ]
        probs = [p for _, p in merge_weighted_descending(streams)]
        assert probs == sorted(probs, reverse=True)


class TestDeduplicate:
    def test_keeps_first_occurrence(self):
        guesses = iter([("a", 0.5), ("b", 0.4), ("a", 0.3)])
        assert list(deduplicate_guesses(guesses)) == [
            ("a", 0.5), ("b", 0.4)
        ]
