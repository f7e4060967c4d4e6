"""A fixed pure-Python workload that measures how fast the host runs now.

The 2-core virtual host this benchmark was built on runs each core at
one of two speeds, about 2x apart, in spells of a few seconds, and over
minutes the share of slow spells drifts: the same code ran 25% slower
five minutes later.  :func:`probe` times a fixed piece of work shaped
like the parser's: walking strings through a dict-of-dicts trie of
20,000 words, slicing out the longest match and counting the pieces
under tuple keys.  It is the benchmark's own code, so no change to the
program moves it.  A stage time divided by the host's current
``probe() / REFERENCE_SECONDS`` reads as it would on a host where the
probe takes ``REFERENCE_SECONDS``.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

#: Seconds :func:`probe` takes at the reference speed: about its time
#: in a fast spell of the host this benchmark was built on.
REFERENCE_SECONDS = 0.002

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _build() -> Tuple[dict, List[str]]:
    rng = random.Random("perfbench:probe")
    words = [
        "".join(rng.choice(_LETTERS) for _ in range(rng.randint(3, 9)))
        for _ in range(20_000)
    ]
    trie: dict = {}
    for word in words:
        node = trie
        for char in word:
            node = node.setdefault(char, {})
        node[""] = word
    texts = [
        rng.choice(words) + str(rng.randrange(1000)) + rng.choice(words)
        for _ in range(400)
    ]
    return trie, texts


_TRIE, _TEXTS = _build()


def probe() -> float:
    """Seconds one pass of the fixed workload takes."""
    counts: Dict[tuple, int] = {}
    start = time.perf_counter()
    for text in _TEXTS:
        at = 0
        while at < len(text):
            node, end, best = _TRIE, at, at + 1
            while end < len(text) and text[end] in node:
                node = node[text[end]]
                end += 1
                if "" in node:
                    best = end
            key = (text[at:best], best - at)
            counts[key] = counts.get(key, 0) + 1
            at = best
    return time.perf_counter() - start
