"""The pre-engine guess enumerator: the :class:`AttackEngine` oracle.

Before the attack engine, :meth:`FuzzyPSM.iter_guesses` merged, over
all learned base structures, the product of per-slot variant streams
(terminal x capitalization x leet), walking the training-side count
tables.  It lives here as the differential oracle for the engine (same
guesses, same order up to ties, probabilities equal within float
re-association) and as the baseline of
``benchmarks/test_timing_attack_engine.py``.  Unlike the engine it
appends zero-probability variants.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.grammar import DerivedSegment, leet_rule_for_char
from repro.core.meter import FuzzyPSM
from repro.metrics.enumeration import (
    LazyDescendingList,
    deduplicate_guesses,
    descending_products,
    merge_weighted_descending,
)


def reference_guesses(meter: FuzzyPSM, limit: Optional[int] = None
                      ) -> Iterator[Tuple[str, float]]:
    """``meter``'s guesses in decreasing probability, deduplicated."""
    grammar = meter.grammar
    slot_cache: Dict[int, LazyDescendingList[str]] = {}

    def slot_list(length: int) -> LazyDescendingList[str]:
        if length not in slot_cache:
            slot_cache[length] = LazyDescendingList(
                _slot_variants(meter, length)
            )
        return slot_cache[length]

    def structure_stream(structure: Tuple[int, ...]
                         ) -> Iterator[Tuple[str, float]]:
        factors = [slot_list(length) for length in structure]
        for surfaces, probability in descending_products(factors):
            yield "".join(surfaces), probability

    streams: List[Tuple[float, Iterator[Tuple[str, float]]]] = []
    total = grammar.structures.total
    if total == 0:
        return
    for structure, count in grammar.structures.most_common():
        streams.append((count / total, structure_stream(structure)))
    deduplicated = deduplicate_guesses(merge_weighted_descending(streams))
    for index, item in enumerate(deduplicated):
        if limit is not None and index >= limit:
            return
        yield item


def _slot_variants(meter: FuzzyPSM,
                   length: int) -> Iterator[Tuple[str, float]]:
    """Descending (surface, probability) stream for one B_n slot."""
    grammar = meter.grammar
    table = grammar.terminals.get(length)
    if table is None or table.total == 0:
        return iter(())
    total = table.total

    def variants_of(base: str) -> Iterator[Tuple[str, float]]:
        # Heterogeneous slots (case/reverse choices vs leet-toggle
        # offsets), so the factor element type is Any by design.
        factors: List[List[Tuple[Any, float]]] = [
            _case_reverse_factor(meter, base)
        ]
        for offset, ch in enumerate(base):
            rule = leet_rule_for_char(ch)
            if rule is not None:
                factors.append(_leet_factor(meter, rule, offset))
        for choices, probability in descending_products(factors):
            capitalized, reversed_word, all_caps = choices[0]
            toggles = tuple(
                offset for offset in choices[1:] if offset is not None
            )
            segment = DerivedSegment(base, capitalized, toggles,
                                     reversed_word, all_caps)
            yield segment.surface(), probability

    weighted = [
        (count / total, variants_of(base))
        for base, count in table.most_common()
    ]
    return merge_weighted_descending(weighted)


def _case_reverse_factor(
    meter: FuzzyPSM, base: str
) -> List[Tuple[Tuple[bool, bool, bool], float]]:
    """(capitalized, reversed, all_caps) choices for a slot.

    Enumeration must only emit variants the measuring parse can
    report, or measured and enumerated probabilities would drift:

    * ``capitalized=True`` needs a lower-case first character;
    * ``reversed_word=True`` needs the reverse rule enabled and
      observed, a non-palindromic base that is an actual trie word
      (fallback runs are not reverse-matchable), and — matching the
      parser's semantics — no case rule on the same segment;
    * ``all_caps=True`` needs the rule enabled and observed, a
      trie-word base, and an upper-casing that changes a character
      beyond position 0 (otherwise the surface collides with the
      first-letter or plain reading, which the parser prefers).
    """
    grammar = meter.grammar
    config = meter.config
    p_cap_yes = grammar.capitalization_probability(True)
    p_cap_no = grammar.capitalization_probability(False)
    p_rev_yes = grammar.reverse_probability(True)
    p_rev_no = grammar.reverse_probability(False)
    p_ac_yes = grammar.allcaps_probability(True)
    p_ac_no = grammar.allcaps_probability(False)
    options = [((False, False, False), p_cap_no * p_rev_no * p_ac_no)]
    if base[:1].islower():
        options.append(
            ((True, False, False), p_cap_yes * p_rev_no * p_ac_no)
        )
    if (
        config.allow_reverse
        and grammar.reverse.count(True) > 0
        and base != base[::-1]
        and base in meter.trie
    ):
        options.append(
            ((False, True, False), p_cap_no * p_rev_yes * p_ac_no)
        )
    if (
        config.allow_allcaps
        and grammar.allcaps.count(True) > 0
        and base in meter.trie
        and base[1:] != base[1:].upper()
    ):
        options.append(
            ((False, False, True), p_cap_no * p_rev_no * p_ac_yes)
        )
    options.sort(key=lambda item: (-item[1], item[0]))
    return options


def _leet_factor(meter: FuzzyPSM, rule: str,
                 offset: int) -> List[Tuple[Optional[int], float]]:
    p_yes = meter.grammar.leet_probability(rule, True)
    p_no = meter.grammar.leet_probability(rule, False)
    options = [(None, p_no), (offset, p_yes)]
    options.sort(key=lambda item: (-item[1], item[0] is not None))
    return options
