"""Table XI — the training/testing scenario matrix.

Three scenario kinds (Sec. V-C):

* **ideal case** — training is 1/4 of the test dataset, testing is a
  disjoint 1/4; eliminates training-set mismatch so results reflect
  the meter alone (Figs. 9 and 13(a)-(i));
* **real-world case** — training is a leaked similar-service corpus
  plus 1/4 of the test set (the adaptive-update stream), testing is
  the full remaining set (Figs. 13(j)-(p));
* **cross-language** — training material from the other language
  (Figs. 13(q)-(r)), demonstrating that language mismatch breaks
  meters.

fuzzyPSM additionally needs a *base dictionary*: the weakest corpus of
each language group — Rockyou (English) and Tianya (Chinese).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Scenario:
    """One experiment of Fig. 13 (or Fig. 9, which is csdn-ideal).

    Attributes:
        name: identifier, e.g. ``ideal-csdn``.
        figure: the paper sub-figure it reproduces, e.g. ``13(h)``.
        kind: ``ideal`` / ``real`` / ``cross``.
        base_dataset: fuzzyPSM's base dictionary corpus.
        train_dataset: extra training corpus (None in the ideal case,
            where training is a quarter of the test set).
        test_dataset: the dataset being measured.
    """

    name: str
    figure: str
    kind: str
    base_dataset: str
    train_dataset: Optional[str]
    test_dataset: str

    @property
    def language_group(self) -> str:
        return "Chinese" if self.base_dataset == "tianya" else "English"


def _ideal(figure: str, base: str, test: str) -> Scenario:
    return Scenario(
        name=f"ideal-{test}", figure=figure, kind="ideal",
        base_dataset=base, train_dataset=None, test_dataset=test,
    )


def _real(figure: str, base: str, train: str, test: str) -> Scenario:
    return Scenario(
        name=f"real-{test}", figure=figure, kind="real",
        base_dataset=base, train_dataset=train, test_dataset=test,
    )


IDEAL_SCENARIOS: Tuple[Scenario, ...] = (
    _ideal("13(a)", "rockyou", "phpbb"),
    _ideal("13(b)", "rockyou", "yahoo"),
    _ideal("13(c)", "rockyou", "battlefield"),
    _ideal("13(d)", "rockyou", "singles"),
    _ideal("13(e)", "rockyou", "faithwriters"),
    _ideal("13(f)", "tianya", "weibo"),
    _ideal("13(g)", "tianya", "dodonew"),
    _ideal("13(h)", "tianya", "csdn"),   # also Fig. 9(a)/(b)
    _ideal("13(i)", "tianya", "zhenai"),
)

REAL_SCENARIOS: Tuple[Scenario, ...] = (
    _real("13(j)", "rockyou", "phpbb", "yahoo"),
    _real("13(k)", "rockyou", "phpbb", "battlefield"),
    _real("13(l)", "rockyou", "phpbb", "singles"),
    _real("13(m)", "rockyou", "phpbb", "faithwriters"),
    _real("13(n)", "tianya", "weibo", "dodonew"),
    _real("13(o)", "tianya", "weibo", "csdn"),
    _real("13(p)", "tianya", "weibo", "zhenai"),
)

CROSS_LANGUAGE_SCENARIOS: Tuple[Scenario, ...] = (
    Scenario(
        name="cross-dodonew", figure="13(q)", kind="cross",
        base_dataset="rockyou", train_dataset="phpbb",
        test_dataset="dodonew",
    ),
    Scenario(
        name="cross-yahoo", figure="13(r)", kind="cross",
        base_dataset="tianya", train_dataset="weibo",
        test_dataset="yahoo",
    ),
)

ALL_SCENARIOS: Tuple[Scenario, ...] = (
    IDEAL_SCENARIOS + REAL_SCENARIOS + CROSS_LANGUAGE_SCENARIOS
)

#: The meter pair compared by the crossover experiment
#: (:func:`repro.experiments.runner.run_crossover`): fuzzyPSM against
#: the classic PCFG attacker, at Table I's online (< 10^4) and offline
#: (> 10^9) budgets.
CROSSOVER_METERS: Tuple[str, str] = ("fuzzyPSM", "PCFG")

_BY_NAME: Dict[str, Scenario] = {s.name: s for s in ALL_SCENARIOS}


def scenario(name: str) -> Scenario:
    """Look up a scenario by name.

    >>> scenario("ideal-csdn").figure
    '13(h)'
    """
    if name not in _BY_NAME:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(_BY_NAME))}"
        )
    return _BY_NAME[name]
