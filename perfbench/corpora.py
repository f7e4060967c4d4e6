"""Seeded benchmark inputs, independent of the program under test.

Every input of a run derives from the workload name and ``--seed``
through one :class:`random.Random`, so the same seed gives the same
files and request plans.  Nothing here imports ``repro``: a change to
the program, its synthetic corpus generator included, cannot change
what the benchmark feeds it.

Passwords exercise every rule the parser models: first-letter
capitalisation, the six leet rules (a@ s$ o0 i1 e3 t7), concatenated
base words, digit and symbol affixes, and strings that fall back to
letter, digit and symbol runs.
"""

from __future__ import annotations

import itertools
import os
import random
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

CHECK, ACCEPT = "check", "accept"

#: Capacity of the parser's LRU parse cache.  ``zipf`` scores fewer
#: distinct passwords than this and ``tail`` more, so one workload
#: lives in the cache and the other bypasses it.
PARSE_CACHE_ENTRIES = 65_536

#: One request in this many is an ``/accept``: one per 20 checks.
ACCEPT_EVERY = 21

#: Input sizes at ``scale=1``.
SIZES = {
    "base_words": 10_000,
    "zipf_population": 25_000,
    "zipf_corpus": 200_000,
    "zipf_stream": 100_000,
    "tail_corpus": 20_000,
    "tail_stream": 70_000,
}

#: Closed-loop plans hold this many requests per second of phase, far
#: above what the server sustains, so a plan never runs dry.
CLOSED_PLAN_RPS = 3_000

_SYLLABLES = (
    "ta", "te", "ti", "to", "sa", "se", "si", "so", "ma", "me", "mi",
    "mo", "la", "le", "li", "lo", "na", "ne", "ni", "no", "ra", "re",
    "ri", "ro", "da", "de", "di", "do", "ka", "ke", "ki", "ko", "pa",
    "pe", "pi", "po", "ba", "be", "bi", "bo", "sun", "star", "love",
    "pass", "word", "dra", "gon", "mon", "key", "ash", "ley", "tin",
    "ost", "ter", "ist", "ent", "ion", "and", "est", "tiger", "bear",
)
_COMMON = (
    "password", "iloveyou", "monkey", "dragon", "letmein", "sunshine",
    "princess", "football", "qwerty", "asdfgh", "zxcvbn", "1qaz2wsx",
    "123456", "654321", "abc123", "trustno1", "shadow", "master",
)
#: Letters that start no base word and never follow a prefix of one,
#: so a run of them always falls back to the plain L-segment reading.
_UNMATCHED = "cfjqvxz"
_SYMBOLS = "!@#$%&*?._-"
_LEET = {"a": "@", "s": "$", "o": "0", "i": "1", "e": "3", "t": "7"}


def _base_words(rng: random.Random, count: int) -> List[str]:
    words = set(_COMMON)
    while len(words) < count:
        size = rng.choice((2, 2, 3, 3, 4))
        words.add("".join(rng.choice(_SYLLABLES) for _ in range(size)))
    ordered = sorted(words)
    rng.shuffle(ordered)
    return ordered


def _digits(rng: random.Random, low: int, high: int) -> str:
    width = rng.randint(low, high)
    return str(rng.randrange(10 ** width)).zfill(width)


def _leet(rng: random.Random, word: str) -> str:
    spots = [i for i, ch in enumerate(word) if ch in _LEET]
    if not spots:
        return word
    chosen = [i for i in spots if rng.random() < 0.5] or [rng.choice(spots)]
    chars = list(word)
    for i in chosen:
        chars[i] = _LEET[chars[i]]
    return "".join(chars)


def _unmatched(rng: random.Random, low: int, high: int) -> str:
    return "".join(
        rng.choice(_UNMATCHED) for _ in range(rng.randint(low, high))
    )


def password(rng: random.Random, words: List[str]) -> str:
    """One password from a mix of the habits the grammar models."""
    word = rng.choice(words)
    roll = rng.random()
    if roll < 0.10:
        return word
    if roll < 0.18:
        return word.capitalize()
    if roll < 0.28:
        return _leet(rng, word)
    if roll < 0.46:
        return word + _digits(rng, 1, 4)
    if roll < 0.54:
        return word.capitalize() + _digits(rng, 1, 3)
    if roll < 0.62:
        return word + rng.choice(words)
    if roll < 0.68:
        return word + rng.choice(_SYMBOLS) + _digits(rng, 1, 3)
    if roll < 0.72:
        return rng.choice(_SYMBOLS) + word + _digits(rng, 1, 2)
    if roll < 0.80:
        return (_leet(rng, word).capitalize() + _digits(rng, 1, 2)
                + rng.choice(_SYMBOLS))
    if roll < 0.88:
        return _digits(rng, 6, 10)
    if roll < 0.96:
        return _unmatched(rng, 4, 8) + _digits(rng, 1, 4)
    return (_unmatched(rng, 3, 6).capitalize()
            + rng.choice(_SYMBOLS) * rng.randint(1, 3))


def _fresh(rng: random.Random, words: List[str]) -> Iterator[str]:
    """Passwords not produced before in this run, in draw order."""
    seen: Set[str] = set()
    while True:
        candidate = password(rng, words)
        if candidate not in seen:
            seen.add(candidate)
            yield candidate


def _zipf(rng: random.Random,
          population: List[str]) -> Callable[[int], List[str]]:
    """Sampler drawing ``k`` entries with weight ``1 / rank``."""
    weights = list(itertools.accumulate(
        1.0 / rank for rank in range(1, len(population) + 1)
    ))
    return lambda k: rng.choices(population, cum_weights=weights, k=k)


def _shape(items: List[str],
           known: Optional[Set[str]] = None) -> Dict[str, float]:
    distinct = len(set(items))
    shape: Dict[str, float] = {
        "entries": len(items),
        "distinct": distinct,
        "repeat_share": 1.0 - distinct / len(items),
        "distinct_per_parse_cache": distinct / PARSE_CACHE_ENTRIES,
    }
    if known is not None:
        shape["unseen_share"] = (
            sum(1 for item in items if item not in known) / len(items)
        )
    return shape


def _write(path: str, items: List[str]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(items))
        handle.write("\n")


def build(workload: str, seed: int, scale: float, directory: str,
          open_rate: float, open_seconds: float,
          closed_seconds: float) -> Dict:
    """Write ``base.txt``, ``corpus.txt`` and ``stream.txt``; plan the load.

    Returns the open-loop plan (``(offset, kind, password)`` on a
    Poisson schedule at ``open_rate``), the closed-loop plan
    (``(kind, password)``), the password of each launch's first
    ``/check`` and the measured input properties.
    """
    rng = random.Random(f"perfbench:{workload}:{seed}")
    size = {key: max(50, int(value * scale)) for key, value in SIZES.items()}
    words = _base_words(rng, size["base_words"])
    fresh = _fresh(rng, words)
    if workload == "zipf":
        population = list(itertools.islice(fresh, size["zipf_population"]))
        draw = _zipf(rng, population)
        corpus = draw(size["zipf_corpus"])
        stream = draw(size["zipf_stream"])

        def next_check() -> str:
            # Half from the trained distribution, half never seen.
            return draw(1)[0] if rng.random() < 0.5 else next(fresh)
    elif workload == "tail":
        corpus = list(itertools.islice(fresh, size["tail_corpus"]))
        stream = list(itertools.islice(fresh, size["tail_stream"]))
        next_check = fresh.__next__
    else:
        raise ValueError(f"unknown workload {workload!r}")

    def plan(count: int) -> List[Tuple[str, str]]:
        requests: List[Tuple[str, str]] = []
        last = ""
        for index in range(count):
            if index % ACCEPT_EVERY == ACCEPT_EVERY - 1:
                # Sent with its connection's last checked password.
                requests.append((ACCEPT, last))
            else:
                last = next_check()
                requests.append((CHECK, last))
        return requests

    offsets = []
    offset = rng.expovariate(open_rate)
    while offset < open_seconds:
        offsets.append(offset)
        offset += rng.expovariate(open_rate)
    open_plan = [
        (offset, kind, text)
        for offset, (kind, text) in zip(offsets, plan(len(offsets)))
    ]
    closed_plan = plan(int(CLOSED_PLAN_RPS * closed_seconds) + 1)
    first_password = next_check()

    _write(os.path.join(directory, "base.txt"), words)
    _write(os.path.join(directory, "corpus.txt"), corpus)
    _write(os.path.join(directory, "stream.txt"), stream)
    trained = set(corpus)
    checks = [text for _o, kind, text in open_plan if kind == CHECK]
    checks += [text for kind, text in closed_plan if kind == CHECK]
    properties = {
        "base_words": len(words),
        "corpus": _shape(corpus),
        "stream": _shape(stream, trained),
        "checks_planned": _shape(checks, trained),
        "open_rate": open_rate,
        "open_requests": len(open_plan),
        "open_accepts": sum(1 for _o, kind, _t in open_plan
                            if kind == ACCEPT),
    }
    return {
        "open_plan": open_plan,
        "closed_plan": closed_plan,
        "first_password": first_password,
        "properties": properties,
    }
