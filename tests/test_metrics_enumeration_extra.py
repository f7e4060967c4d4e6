"""Additional unit tests for the lazy enumeration primitives."""

import pytest

from repro.metrics.enumeration import (
    LazyDescendingList,
    deduplicate_guesses,
    descending_products,
    merge_weighted_descending,
)


class TestLazyDescendingList:
    def test_indexing_pulls_on_demand(self):
        pulled = []

        def stream():
            for index in range(5):
                pulled.append(index)
                yield (f"v{index}", 1.0 / (index + 1))

        lazy = LazyDescendingList(stream())
        assert lazy.get(0) == ("v0", 1.0)
        assert pulled == [0]
        assert lazy.get(3)[0] == "v3"
        assert pulled == [0, 1, 2, 3]

    def test_out_of_range_returns_none(self):
        lazy = LazyDescendingList(iter([("a", 1.0)]))
        assert lazy.get(0) == ("a", 1.0)
        assert lazy.get(1) is None
        assert lazy.get(5) is None

    def test_cached_after_exhaustion(self):
        lazy = LazyDescendingList(iter([("a", 1.0), ("b", 0.5)]))
        assert lazy.get(10) is None
        assert lazy.get(1) == ("b", 0.5)

    def test_empty_stream(self):
        lazy = LazyDescendingList(iter(()))
        assert lazy.get(0) is None


class TestDescendingProducts:
    def test_no_factors_yields_unit(self):
        assert list(descending_products([])) == [((), 1.0)]

    def test_single_factor(self):
        factor = [("a", 0.7), ("b", 0.3)]
        assert list(descending_products([factor])) == [
            (("a",), 0.7), (("b",), 0.3)
        ]

    def test_empty_factor_yields_nothing(self):
        assert list(descending_products([[], [("a", 1.0)]])) == []

    def test_lazy_factor_supported(self):
        lazy = LazyDescendingList(iter([("x", 0.8), ("y", 0.2)]))
        fixed = [("1", 0.6), ("2", 0.4)]
        results = list(descending_products([lazy, fixed]))
        assert results[0] == (("x", "1"), pytest.approx(0.48))
        assert len(results) == 4

    def test_every_cell_emitted_once(self):
        a = [("a", 0.5), ("b", 0.3), ("c", 0.2)]
        b = [("1", 0.9), ("2", 0.1)]
        cells = [values for values, _ in descending_products([a, b])]
        assert len(cells) == 6
        assert len(set(cells)) == 6

    def test_ties_are_deterministic(self):
        a = [("a", 0.5), ("b", 0.5)]
        b = [("1", 0.5), ("2", 0.5)]
        first = list(descending_products([a, b]))
        second = list(descending_products([a, b]))
        assert first == second


class TestMergeWeightedDescending:
    def test_zero_weight_streams_skipped(self):
        exploding = iter([])  # would raise if touched after skip
        merged = merge_weighted_descending(
            [(0.0, exploding), (1.0, iter([("a", 0.5)]))]
        )
        assert list(merged) == [("a", 0.5)]

    def test_empty_streams_skipped(self):
        merged = merge_weighted_descending(
            [(1.0, iter([])), (1.0, iter([("a", 0.5)]))]
        )
        assert list(merged) == [("a", 0.5)]

    def test_no_streams(self):
        assert list(merge_weighted_descending([])) == []

    def test_interleaving(self):
        a = iter([("a1", 0.9), ("a2", 0.2)])
        b = iter([("b1", 0.5), ("b2", 0.4)])
        merged = list(merge_weighted_descending([(1.0, a), (1.0, b)]))
        assert [item for item, _ in merged] == ["a1", "b1", "b2", "a2"]

    def test_weights_scale(self):
        a = iter([("a", 1.0)])
        b = iter([("b", 1.0)])
        merged = list(merge_weighted_descending([(0.2, a), (0.8, b)]))
        assert merged == [("b", 0.8), ("a", pytest.approx(0.2))]

    def test_equal_probabilities_keep_insertion_order(self):
        a = iter([("a", 0.5)])
        b = iter([("b", 0.5)])
        merged = list(merge_weighted_descending([(1.0, a), (1.0, b)]))
        assert [item for item, _ in merged] == ["a", "b"]


class TestDeduplicateGuesses:
    def test_first_kept(self):
        stream = iter([("x", 0.9), ("x", 0.1), ("y", 0.5)])
        assert list(deduplicate_guesses(stream)) == [
            ("x", 0.9), ("y", 0.5)
        ]

    def test_empty(self):
        assert list(deduplicate_guesses(iter([]))) == []
