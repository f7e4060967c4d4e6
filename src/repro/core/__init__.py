"""The fuzzy probabilistic context-free grammar core of fuzzyPSM.

Layout (bottom-up):

* :mod:`~repro.core.trie` — prefix trie over the base dictionary with
  transformation-aware longest-prefix matching.
* :mod:`~repro.core.compiled_trie` — the leet-canonical compiled
  snapshot of that trie used by the parsing hot path.
* :mod:`~repro.core.grammar` — the fuzzy PCFG rule tables
  (paper Tables IV-VI) and derivation probability arithmetic.
* :mod:`~repro.core.parser` — parses a password into base segments,
  capitalization and leet decisions, with traditional-PCFG fallback.
* :mod:`~repro.core.training` — the training phase: builds a
  :class:`~repro.core.grammar.FuzzyGrammar` from a training dictionary.
* :mod:`~repro.core.meter` — :class:`~repro.core.meter.FuzzyPSM`, the
  public train / measure / update API.
"""

from repro.core.trie import PrefixTrie, FuzzyMatch
from repro.core.compiled_trie import CompiledTrie
from repro.core.grammar import FuzzyGrammar, Derivation, DerivedSegment
from repro.core.parser import FuzzyParser, ParsedPassword, ParsedSegment, SegmentKind
from repro.core.training import train_grammar
from repro.core.meter import FuzzyPSM, FuzzyPSMConfig
from repro.core.buckets import (
    BucketScale,
    BucketedMeter,
    Feedback,
    calibrate_scale,
)
from repro.core.policy import COMMON_POLICIES, PasswordPolicy, PolicyViolation
from repro.core.suggestions import (
    Suggestion,
    improvement_report,
    suggest_stronger,
)

__all__ = [
    "PrefixTrie",
    "FuzzyMatch",
    "CompiledTrie",
    "FuzzyGrammar",
    "Derivation",
    "DerivedSegment",
    "FuzzyParser",
    "ParsedPassword",
    "ParsedSegment",
    "SegmentKind",
    "train_grammar",
    "FuzzyPSM",
    "FuzzyPSMConfig",
    "BucketScale",
    "BucketedMeter",
    "Feedback",
    "calibrate_scale",
    "PasswordPolicy",
    "PolicyViolation",
    "COMMON_POLICIES",
    "Suggestion",
    "suggest_stronger",
    "improvement_report",
]
