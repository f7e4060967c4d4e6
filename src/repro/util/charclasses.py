"""Character classes and structural segmentation of passwords.

The PCFG line of work (Weir et al., S&P 2009; Houshmand & Aggarwal,
ACSAC 2012) models a password as a sequence of maximal runs of letters
(``L``), digits (``D``) and symbols (``S``).  This module provides the
segmentation primitive shared by the traditional PCFG meter, the fuzzy
PCFG fallback parser and the corpus statistics code, plus the
composition-class predicates used to reproduce Table IX of the paper.
"""

from __future__ import annotations

import enum
import re
import string
from typing import List, NamedTuple

#: The full 95 printable ASCII characters; the paper sets the password
#: alphabet Sigma to this set in all cracking experiments (Sec. II-B).
PRINTABLE_ASCII = frozenset(chr(c) for c in range(0x20, 0x7F))

_LOWER = frozenset(string.ascii_lowercase)
_UPPER = frozenset(string.ascii_uppercase)
_DIGIT = frozenset(string.digits)
_SYMBOL = PRINTABLE_ASCII - _LOWER - _UPPER - _DIGIT


class CharClass(enum.Enum):
    """The three PCFG character classes (letters fold case into one class)."""

    LETTER = "L"
    DIGIT = "D"
    SYMBOL = "S"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


def char_class(ch: str) -> CharClass:
    """Return the :class:`CharClass` of a single character.

    >>> char_class("a") is CharClass.LETTER
    True
    >>> char_class("7") is CharClass.DIGIT
    True
    >>> char_class("@") is CharClass.SYMBOL
    True
    """
    if len(ch) != 1:
        raise ValueError(f"expected a single character, got {ch!r}")
    if ch in _LOWER or ch in _UPPER:
        return CharClass.LETTER
    if ch in _DIGIT:
        return CharClass.DIGIT
    return CharClass.SYMBOL


class Segment(NamedTuple):
    """A maximal same-class run inside a password.

    ``label`` is the PCFG symbol, e.g. ``L8`` for an 8-letter run.
    """

    char_class: CharClass
    text: str

    @property
    def label(self) -> str:
        return f"{self.char_class.value}{len(self.text)}"


#: One maximal same-class run (letters / digits / symbols).
_RUN_PATTERN = re.compile(r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9]+")


def segment_by_class(password: str) -> List[Segment]:
    """Split a password into maximal L/D/S runs.

    >>> [s.label for s in segment_by_class("p@ssw0rd")]
    ['L1', 'S1', 'L3', 'D1', 'L2']
    >>> [s.text for s in segment_by_class("Password123")]
    ['Password', '123']
    """
    segments: List[Segment] = []
    for match in _RUN_PATTERN.finditer(password):
        text = match.group(0)
        segments.append(Segment(char_class(text[0]), text))
    return segments


def first_run(password: str, start: int = 0) -> str:
    """Text of the maximal same-class run beginning at ``start``.

    Equivalent to ``segment_by_class(password[start:])[0].text`` but
    without slicing the remainder or scanning past the first run —
    the fuzzy parser calls this once per fallback segment.

    >>> first_run("abc123", 3)
    '123'
    """
    match = _RUN_PATTERN.match(password, start)
    if match is None:
        raise ValueError(f"no character run at position {start}")
    return match.group(0)


def base_structure(password: str) -> str:
    """The traditional PCFG base structure string, e.g. ``L1S1L3D1L2``.

    >>> base_structure("p@ssw0rd")
    'L1S1L3D1L2'
    """
    return "".join(seg.label for seg in segment_by_class(password))


# --- Composition classes (Table IX of the paper) -------------------------

#: Ordered composition classes expressed as the paper's regular
#: expressions.  Anchored entries are exclusive classes; unanchored
#: entries are "contains" predicates.
COMPOSITION_PATTERNS = {
    "^[a-z]+$": re.compile(r"^[a-z]+$"),
    "[a-z]": re.compile(r"[a-z]"),
    "^[A-Z]+$": re.compile(r"^[A-Z]+$"),
    "[A-Z]": re.compile(r"[A-Z]"),
    "^[A-Za-z]+$": re.compile(r"^[A-Za-z]+$"),
    "[a-zA-Z]": re.compile(r"[a-zA-Z]"),
    "^[0-9]+$": re.compile(r"^[0-9]+$"),
    "[0-9]": re.compile(r"[0-9]"),
    "symbol only": re.compile(r"^[^a-zA-Z0-9]+$"),
    "^[a-zA-Z0-9]+$": re.compile(r"^[a-zA-Z0-9]+$"),
    "^[0-9]+[a-z]+$": re.compile(r"^[0-9]+[a-z]+$"),
    "^[a-zA-Z]+[0-9]+$": re.compile(r"^[a-zA-Z]+[0-9]+$"),
    "^[0-9]+[a-zA-Z]+$": re.compile(r"^[0-9]+[a-zA-Z]+$"),
    "^[a-z]+1$": re.compile(r"^[a-z]+1$"),
}


def classify_composition(password: str) -> List[str]:
    """Return every Table-IX composition class the password falls into.

    >>> "^[a-z]+$" in classify_composition("password")
    True
    >>> "^[a-zA-Z]+[0-9]+$" in classify_composition("abc123")
    True
    """
    return [
        name
        for name, pattern in COMPOSITION_PATTERNS.items()
        if pattern.search(password)
    ]


def is_printable_ascii(password: str) -> bool:
    """True when every character is one of the 95 printable ASCII chars."""
    return all(ch in PRINTABLE_ASCII for ch in password)
