"""Run the library's doctests — every ``>>>`` example must stay true."""

import doctest
import importlib

import pytest

MODULES = [
    "repro.core.trie",
    "repro.core.word_index",
    "repro.core.grammar",
    "repro.core.parser",
    "repro.core.training",
    "repro.core.buckets",
    "repro.core.policy",
    "repro.core.suggestions",
    "repro.meters.base",
    "repro.meters.ideal",
    "repro.meters.nist",
    "repro.meters.pcfg",
    "repro.meters.markov",
    "repro.meters.keepsm",
    "repro.meters.zxcvbn",
    "repro.meters.zxcvbn.crack_time",
    "repro.meters.zxcvbn.scoring",
    "repro.metrics.rank",
    "repro.metrics.curves",
    "repro.metrics.enumeration",
    "repro.metrics.guesswork",
    "repro.datasets.corpus",
    "repro.datasets.stats",
    "repro.datasets.profiles",
    "repro.datasets.zipf",
    "repro.util.charclasses",
    "repro.util.freqdist",
    "repro.util.leet",
    "repro.attacks.simulator",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(
        module, optionflags=doctest.NORMALIZE_WHITESPACE
    )
    assert results.failed == 0, (
        f"{results.failed} doctest failure(s) in {module_name}"
    )


def test_doctest_coverage_is_meaningful():
    """At least half the listed modules actually carry examples —
    guards against the list silently rotting."""
    with_examples = 0
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        finder = doctest.DocTestFinder()
        if any(test.examples for test in finder.find(module)):
            with_examples += 1
    assert with_examples >= len(MODULES) // 2
