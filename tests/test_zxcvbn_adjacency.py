"""Unit tests for the zxcvbn keyboard adjacency graphs."""

import pytest

from repro.meters.zxcvbn.adjacency import default_graphs


@pytest.fixture(scope="module")
def graphs():
    return default_graphs()


@pytest.fixture(scope="module")
def qwerty(graphs):
    return graphs["qwerty"]


@pytest.fixture(scope="module")
def keypad(graphs):
    return graphs["keypad"]


class TestQwertyGraph:
    def test_contains_letters_and_digits(self, qwerty):
        for ch in "qwertyuiopasdfghjklzxcvbnm1234567890":
            assert ch in qwerty

    def test_contains_shifted_engravings(self, qwerty):
        for ch in "!@#$%^&*()QWERTY":
            assert ch in qwerty

    def test_horizontal_adjacency(self, qwerty):
        assert qwerty.adjacent("q", "w") is not None
        assert qwerty.adjacent("w", "q") is not None

    def test_diagonal_adjacency(self, qwerty):
        # On a slanted board 'q' neighbours 'a' (down-left of centre).
        assert qwerty.adjacent("q", "a") is not None

    def test_non_adjacency(self, qwerty):
        assert qwerty.adjacent("q", "p") is None
        assert qwerty.adjacent("a", "l") is None

    def test_shifted_variant_is_adjacent_too(self, qwerty):
        # Shift state does not break adjacency: q -> W.
        assert qwerty.adjacent("q", "W") is not None

    def test_is_shifted(self, qwerty):
        assert qwerty.is_shifted("Q")
        assert not qwerty.is_shifted("q")
        assert qwerty.is_shifted("!")
        assert not qwerty.is_shifted("1")

    def test_unknown_character(self, qwerty):
        assert "€" not in qwerty
        assert qwerty.neighbors("€") == []
        assert not qwerty.is_shifted("€")

    def test_average_degree_plausible(self, qwerty):
        # zxcvbn's published qwerty figure is ~4.6; layout derivation
        # should land in the same neighbourhood.
        assert 3.5 <= qwerty.average_degree <= 5.5

    def test_starting_positions(self, qwerty):
        # 13 + 13 + 11 + 10 keys.
        assert qwerty.starting_positions == 47


class TestKeypadGraph:
    def test_contains_digits(self, keypad):
        for ch in "0123456789":
            assert ch in keypad

    def test_grid_adjacency(self, keypad):
        assert keypad.adjacent("4", "5") is not None
        assert keypad.adjacent("5", "8") is not None
        assert keypad.adjacent("1", "5") is not None  # diagonal

    def test_non_adjacency(self, keypad):
        assert keypad.adjacent("1", "9") is None

    def test_no_shifted_keys(self, keypad):
        assert not keypad.is_shifted("7")

    def test_average_degree_plausible(self, keypad):
        # zxcvbn's published keypad figure is ~5.1.
        assert 4.0 <= keypad.average_degree <= 6.0

    def test_starting_positions(self, keypad):
        assert keypad.starting_positions == 15


class TestDirectionSlots:
    def test_direction_changes_detectable(self, qwerty):
        # A straight right-run keeps the same direction slot.
        d1 = qwerty.adjacent("a", "s")
        d2 = qwerty.adjacent("s", "d")
        assert d1 == d2
        # A turn changes the slot.
        d3 = qwerty.adjacent("d", "e")
        assert d3 != d2
