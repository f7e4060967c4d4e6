"""One oracle for every scoring path.

The reference is the test-side pointer-trie parser
(``tests.conftest.pointer_parser``) plus the count-table product
:meth:`FuzzyGrammar.derivation_probability` (paper Fig. 11).  Every
production path must equal it bit for bit, on meters trained over
generated corpora, before and after the update phase:

* ``probability_many`` (the batch loop over the score memo and the
  frozen kernel);
* per-call ``probability``;
* the probability the attack engine reports for its first guesses;
* HTTP ``/check``, over a fixed input list through one server.

Corpora come from the generators of ``test_differential_parsing`` and
``test_scoring_parallel``.  One configuration turns the reverse and
all-caps extensions on; one turns leet off and one capitalization.
``derandomize=True`` makes every run replay the same examples.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.meter import FuzzyPSM, FuzzyPSMConfig  # noqa: E402
from repro.serve import ServeConfig  # noqa: E402

from tests.conftest import TRAINING_PASSWORDS, reference_scores  # noqa: E402
from tests.serve_utils import ServeClient, run, running_server  # noqa: E402
from tests.test_differential_parsing import PASSWORDS, WORDS  # noqa: E402
from tests.test_scoring_parallel import (  # noqa: E402
    _PLAIN,
    _fresh_base,
    refresh_password,
)

ORACLE = settings(max_examples=50, deadline=None, derandomize=True)

#: Base words led by a leet substitute, and capitalised passwords that
#: spell one with the letter instead.  A capitalised first letter takes
#: no leet toggle, so ``Star1`` must not read as ``$tar``; training and
#: scoring on both shows a parse that lets it.  ``l0ve`` and ``lov3``
#: tie on ``l0v3`` (one toggle each), where the smaller base wins.
LEET_LED = ["$tar", "0range", "1ce", "3agle", "7iger", "@lpha", "l0ve",
            "lov3"]
CAPITALISED = ["Star1", "Orange", "Ice9", "Eagle!", "Tiger7", "Alpha",
               "$TAR", "0range", "l0v3", "lov3!"]
BASE = WORDS + LEET_LED

#: Guesses of the attack engine checked per meter.
GUESSES = 60

CONFIGS = {
    "reverse+allcaps": FuzzyPSMConfig(allow_reverse=True,
                                      allow_allcaps=True),
    "no leet": FuzzyPSMConfig(allow_leet=False),
    "no capitalization": FuzzyPSMConfig(allow_capitalization=False),
}


def assert_every_path_is_the_reference(meter: FuzzyPSM, probes) -> None:
    expected = reference_scores(meter, probes)
    assert meter.probability_many(probes) == expected
    assert [meter.probability(password) for password in probes] \
        == expected
    grammar = meter.grammar
    for _surface, probability, derivation in \
            meter.attack_engine().derivations(limit=GUESSES):
        assert probability == grammar.derivation_probability(derivation)


def updates_for(meter: FuzzyPSM, drawn):
    """``drawn`` plus an unseen base at a known length and a base of a
    length the grammar has not seen; ``_PLAIN`` letters start no base
    word, so each of those parses as one segment of its own length."""
    terminals = meter.grammar.terminals
    return [
        *drawn,
        _fresh_base(meter.grammar, min(terminals)),
        _PLAIN[0] * (max(terminals) + 1),
    ]


@pytest.mark.parametrize("name", sorted(CONFIGS))
@given(
    corpus=st.lists(refresh_password(), min_size=3, max_size=20),
    probes=st.lists(PASSWORDS, min_size=1, max_size=12),
    drawn=st.lists(refresh_password(), min_size=1, max_size=3),
)
@ORACLE
def test_every_path_equals_the_reference(name, corpus, probes, drawn):
    meter = FuzzyPSM.train(BASE, corpus + CAPITALISED,
                           config=CONFIGS[name])
    probes = probes + CAPITALISED
    assert_every_path_is_the_reference(meter, probes)
    updates = updates_for(meter, drawn)
    for password in updates:
        meter.update(password)
    assert_every_path_is_the_reference(meter, probes + updates)


#: The ``/check`` inputs: trained and transformed words, reversed and
#: all-caps readings, fallback runs, unicode capitals, the empty string.
HTTP_INPUTS = [
    "password", "Password123", "p@ssw0rd", "P@SSWORD", "drowssap",
    "NOGARD99", "astalavista!", "Lovely2016", "tyxdqd123", "",
    "\u0130stanbul", "\u212aelvin", "pässword", "zz!!9", *CAPITALISED,
]


def test_http_check_equals_the_reference_before_and_after_accepts():
    meter = FuzzyPSM.train(
        BASE, TRAINING_PASSWORDS + CAPITALISED,
        config=CONFIGS["reverse+allcaps"],
    )
    accepts = ["Dr@gon2016", "bcfghjk", "x" * 30]

    async def check_all(client):
        return [
            (await client.check(password))["probability"]
            for password in HTTP_INPUTS
        ]

    async def main():
        async with running_server(meter, ServeConfig()) as server:
            async with ServeClient(server.port) as client:
                before = await check_all(client)
                expected_before = reference_scores(meter, HTTP_INPUTS)
                for password in accepts:
                    status, _ = await client.request(
                        "POST", "/accept", {"password": password}
                    )
                    assert status == 200
                after = await check_all(client)
                expected_after = reference_scores(meter, HTTP_INPUTS)
        return before, expected_before, after, expected_after

    before, expected_before, after, expected_after = run(main())
    assert before == expected_before
    assert after == expected_after
    assert after != before
