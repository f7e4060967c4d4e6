"""The training reference: parse and count every entry, in order.

This is the training pass as the paper states it (Sec. IV-C): each
password of the training dictionary is parsed and its derivation
counted into the tables through :meth:`FuzzyGrammar.observe`, once per
entry.  The window engine of :mod:`repro.core.training` parses each
distinct password once per window and counts a window in one batch;
the differential tests hold its grammar to this pass byte for byte
(``to_dict``), and its errors to this pass's errors.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

from repro.core.grammar import FuzzyGrammar
from repro.core.parser import FuzzyParser
from repro.core.training import (
    PasswordEntry,
    _invalid_count,
    is_count,
)
from repro.core.trie import PrefixTrie


def _entries(
    passwords: Iterable[PasswordEntry],
) -> Iterator[Tuple[str, int]]:
    """Normalise entries to ``(password, count)``, validating counts."""
    for entry in passwords:
        if isinstance(entry, str):
            yield entry, 1
        else:
            password, count = entry
            if not is_count(count):
                raise _invalid_count(password, count)
            yield password, count


def train_reference(training_passwords: Iterable[PasswordEntry],
                    trie: PrefixTrie,
                    parser: Optional[FuzzyParser] = None,
                    skip_empty: bool = True) -> FuzzyGrammar:
    """The grammar :func:`~repro.core.training.train_grammar` must
    produce, from one parse and one ``observe`` per entry."""
    if parser is None:
        parser = FuzzyParser(trie)
    grammar = FuzzyGrammar()
    observe = grammar.observe
    parse = parser.parse_flat
    for password, count in _entries(training_passwords):
        if not password:
            if skip_empty:
                continue
            raise ValueError("cannot train on an empty password")
        observe(parse(password), count)
    return grammar
