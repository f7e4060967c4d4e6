"""The top-6 leet ("l33t") substitutions used by fuzzyPSM.

The paper's fuzzy grammar models exactly six leet rules (Table VI), in
decreasing order of observed popularity::

    L1: a <-> @    L2: s <-> $    L3: o <-> 0
    L4: i <-> 1    L5: e <-> 3    L6: t <-> 7

``deleet`` maps a (lower-cased) string back to its all-letter base form,
recording which rules fired; ``leet_variants`` enumerates the forward
images, which the zxcvbn reimplementation also uses for its l33t matcher.
``leet_rule_bytes`` and ``leet_run`` give the rule numbers of a word's
leet characters, as the frozen scoring kernel and the attack engine read
them.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

#: ``(rule_name, letter, substitute)`` in the paper's priority order.
LEET_PAIRS: Tuple[Tuple[str, str, str], ...] = (
    ("L1", "a", "@"),
    ("L2", "s", "$"),
    ("L3", "o", "0"),
    ("L4", "i", "1"),
    ("L5", "e", "3"),
    ("L6", "t", "7"),
)

#: letter -> substitute, e.g. ``"a" -> "@"``.
LEET_BY_LETTER: Dict[str, str] = {letter: sub for _, letter, sub in LEET_PAIRS}

#: substitute -> letter, e.g. ``"@" -> "a"``.
LEET_BY_SUBSTITUTE: Dict[str, str] = {sub: letter for _, letter, sub in LEET_PAIRS}

#: rule name -> (letter, substitute).
LEET_RULES: Dict[str, Tuple[str, str]] = {
    name: (letter, sub) for name, letter, sub in LEET_PAIRS
}

LEET_RULE_NAMES: Tuple[str, ...] = tuple(name for name, _, _ in LEET_PAIRS)

#: character -> 0-based leet rule number, both directions of a pair
#: (``"a" -> 0`` and ``"@" -> 0``); the integer-index twin of
#: :func:`repro.core.grammar.leet_rule_for_char`, shared by the frozen
#: scoring kernel and the training counters so both derive rule
#: membership without per-call string work.
LEET_RULE_INDEX: Dict[str, int] = {}
for _index, (_name, _letter, _sub) in enumerate(LEET_PAIRS):
    LEET_RULE_INDEX[_letter] = _index
    LEET_RULE_INDEX[_sub] = _index
del _index, _name, _letter, _sub

#: The ``(offset, rule)`` pairs of a word's leet characters, in offset
#: order (:func:`leet_run`).
LeetRun = Tuple[Tuple[int, int], ...]

#: Joins the encoded words of one :func:`leet_rule_bytes` call.  UTF-8
#: never produces 0xFF, even with ``surrogatepass``, so no word holds it.
_WORD_BREAK = b"\xff"

#: ``bytes.translate`` table: each of the twelve ASCII leet characters
#: to its rule number (0-5); the other bytes are deleted or kept as is.
_RULE_TABLE = bytes(
    LEET_RULE_INDEX.get(chr(byte), byte) for byte in range(256)
)

#: Every byte but the leet characters and the word break.  Non-ASCII
#: characters encode to bytes >= 0x80, so they are deleted too.
_NOT_LEET = bytes(
    byte for byte in range(255) if chr(byte) not in LEET_RULE_INDEX
)


def leet_rule_bytes(words: Sequence[str]) -> List[bytes]:
    """The rule numbers of each word's leet characters, in offset order.

    One ``bytes`` per word, built without a Python step per word or
    character: the words are encoded (``surrogatepass``, so a lone
    surrogate is just another non-leet character), joined, translated
    once and split.

    >>> leet_rule_bytes(["p@ss", "xyz", "t\\u00e97"])
    [b'\\x00\\x01\\x01', b'', b'\\x05\\x05']
    """
    if not words:
        return []
    encoded = map(
        str.encode, words, itertools.repeat("utf-8"),
        itertools.repeat("surrogatepass"),
    )
    return _WORD_BREAK.join(encoded).translate(
        _RULE_TABLE, _NOT_LEET
    ).split(_WORD_BREAK)


def leet_run(word: str) -> LeetRun:
    """The ``(offset, rule)`` pairs of ``word``'s leet characters.

    Offsets count characters; the rules are :func:`leet_rule_bytes`'s
    for the same word, in the same order.

    >>> leet_run("p@ss")
    ((1, 0), (2, 1), (3, 1))
    """
    return tuple(
        (offset, LEET_RULE_INDEX[ch])
        for offset, ch in enumerate(word)
        if ch in LEET_RULE_INDEX
    )


def deleet(text: str) -> Tuple[str, FrozenSet[str]]:
    """Undo leet substitutions, returning ``(base_text, rules_used)``.

    Every occurrence of a substitute character is mapped back to its
    letter; the rule fires if it mapped at least one character.

    >>> base, rules = deleet("p@ssw0rd")
    >>> base, sorted(rules)
    ('password', ['L1', 'L3'])
    >>> deleet("password")[1]
    frozenset()
    """
    rules_used = set()
    chars: List[str] = []
    for ch in text:
        letter = LEET_BY_SUBSTITUTE.get(ch)
        if letter is None:
            chars.append(ch)
        else:
            chars.append(letter)
            for name, rule_letter, rule_sub in LEET_PAIRS:
                if rule_sub == ch and rule_letter == letter:
                    rules_used.add(name)
    return "".join(chars), frozenset(rules_used)


def applicable_rules(base_text: str) -> FrozenSet[str]:
    """Leet rules whose *letter* occurs in ``base_text``.

    Only these rules contribute a Yes/No decision to the probability of
    a derivation (a rule cannot fire on a word that lacks its letter).

    >>> sorted(applicable_rules("password"))
    ['L1', 'L2', 'L3']
    """
    present = set(base_text)
    return frozenset(
        name for name, letter, _ in LEET_PAIRS if letter in present
    )


def apply_rules(base_text: str, rules: FrozenSet[str]) -> str:
    """Apply the given leet rules to every matching letter.

    >>> apply_rules("password", frozenset({"L1", "L3"}))
    'p@ssw0rd'
    """
    table = {}
    for name in rules:
        letter, sub = LEET_RULES[name]
        table[letter] = sub
    return "".join(table.get(ch, ch) for ch in base_text)


def leet_variants(base_text: str, max_variants: int = 64) -> Iterator[str]:
    """Enumerate leet images of ``base_text`` (excluding the identity).

    Rules toggle independently, so a word containing ``k`` distinct
    leet-able letters has ``2**k - 1`` non-trivial variants.  The
    enumeration is capped at ``max_variants`` as a safety valve.

    >>> sorted(leet_variants("so"))
    ['$0', '$o', 's0']
    """
    rules = sorted(applicable_rules(base_text))
    count = 0
    for r in range(1, len(rules) + 1):
        for combo in itertools.combinations(rules, r):
            if count >= max_variants:
                return
            yield apply_rules(base_text, frozenset(combo))
            count += 1
