"""Published aggregates of the paper's 442-participant survey.

Numbers quoted in the paper's text are encoded exactly; a few bar
heights were published only graphically (Figs. 5-7), and those entries
are flagged in ``ESTIMATED_FIELDS`` — they preserve the paper's stated
*ordering* (e.g. "concatenation takes the lead", "digits go at the end,
middle, beginning in decreasing order of likelihood").

All tables map answer -> fraction of respondents.  Multiple-choice
questions (marked) do not sum to 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

#: Fig. 2 — "What will you do when requested to create a password for a
#: new email account?"  The paper states: 77.38% reuse or modify, and
#: 14.48% build an entirely new password; the reuse/modify split is
#: derived from the stated comparisons with Das et al. (see below).
CREATION_STRATEGY: Dict[str, float] = {
    "reuse an existing password": 0.3680,
    "modify an existing password": 0.4058,
    "create an entirely new password": 0.1448,
    "other / no answer": 0.0814,
}

#: Fig. 2 of Das et al. (NDSS'14), the English-user baseline the paper
#: compares against: 77% reuse-or-modify, 6.2% more direct reuse than
#: Chinese users, 14.86% more brand-new passwords.
DAS_2014_CREATION_STRATEGY: Dict[str, float] = {
    "reuse an existing password": 0.4300,
    "modify an existing password": 0.3400,
    "create an entirely new password": 0.2934,
}

#: Fig. 3 — similarity of the new password to existing ones.
SIMILARITY: Dict[str, float] = {
    "the same or very similar": 0.6177,
    "similar": 0.2000,
    "somewhat different": 0.1300,
    "completely different": 0.0523,
}

#: Fig. 4 — why users modify instead of reusing (multiple-choice).
MODIFY_REASONS: Dict[str, float] = {
    "increase security": 0.5100,
    "fulfill password policies": 0.4276,
    "improve memorability": 0.3258,
}

#: Fig. 5 — transformation rules used when modifying (multiple-choice);
#: concatenation leads, then capitalization and leet (paper text).
TRANSFORMATION_RULES: Dict[str, float] = {
    "concatenation (add digit/symbol at beginning/end)": 0.5520,
    "capitalization": 0.2780,
    "leet (a<->@, o<->0, ...)": 0.1890,
    "substring movement": 0.1240,
    "reverse": 0.0870,
    "add site-specific info": 0.0680,
}

#: Fig. 6 — where users place a required digit (multiple-choice).
DIGIT_PLACEMENT: Dict[str, float] = {
    "end": 0.6230,
    "middle": 0.2470,
    "beginning": 0.1910,
}

#: Fig. 7 — where users place a required symbol (multiple-choice).
SYMBOL_PLACEMENT: Dict[str, float] = {
    "end": 0.5340,
    "middle": 0.2710,
    "beginning": 0.1530,
}

#: Fig. 8 — where capitalization happens (multiple-choice).  47.96% and
#: 22.62% are quoted in the paper; English comparison: 44% / 6%.
CAPITALIZATION_PLACEMENT: Dict[str, float] = {
    "beginning of the password": 0.4796,
    "middle of the password": 0.1410,
    "end of the password": 0.0920,
    "never use capitalization": 0.2262,
}

#: Demographics quoted in Sec. III.
DEMOGRAPHICS: Dict[str, float] = {
    "male": 2 / 3,
    "age 18-34": 0.8055,
    "age 35+": 0.1567,
    "bachelor's degree or pursuing": 0.8055,
    "master's degree or pursuing": 0.4344,
}

#: Survey bookkeeping from Sec. III.
INVITATIONS_SENT = 983
EFFECTIVE_RESPONSES = 442

#: Fields whose exact values were published only as bar charts; the
#: encoded numbers preserve the paper's stated ordering and text.
ESTIMATED_FIELDS: Sequence[str] = (
    "TRANSFORMATION_RULES",
    "DIGIT_PLACEMENT",
    "SYMBOL_PLACEMENT",
    "SIMILARITY[somewhat different]",
    "CAPITALIZATION_PLACEMENT[middle/end]",
)


@dataclass(frozen=True)
class BehaviorModel:
    """The survey aggregates as a generative model of user behaviour.

    The synthetic corpus generator draws an *action* per registration
    (reuse / modify / new) and, for modifications, a transformation
    rule and a placement — all with the survey's probabilities.  The
    residual "other / no answer" mass is folded into reuse, the most
    conservative reading.
    """

    reuse: float = CREATION_STRATEGY["reuse an existing password"] + \
        CREATION_STRATEGY["other / no answer"]
    modify: float = CREATION_STRATEGY["modify an existing password"]
    new: float = CREATION_STRATEGY["create an entirely new password"]

    #: Relative weights of transformation rules when modifying; the
    #: survey was multiple-choice so these are normalised weights.
    rule_weights: Tuple[Tuple[str, float], ...] = (
        ("concatenate_digits", 0.40),
        ("concatenate_symbol", 0.15),
        ("capitalize", 0.21),
        ("leet", 0.14),
        ("reverse", 0.06),
        ("site_info", 0.04),
    )

    #: Placement distribution for concatenation (from Figs. 6-7,
    #: normalised): end, beginning, middle.
    placement_weights: Tuple[Tuple[str, float], ...] = (
        ("end", 0.60),
        ("beginning", 0.22),
        ("middle", 0.18),
    )

    def choose_action(self, rng: random.Random) -> str:
        """Draw ``reuse`` / ``modify`` / ``new`` per the survey."""
        roll = rng.random() * (self.reuse + self.modify + self.new)
        if roll < self.reuse:
            return "reuse"
        if roll < self.reuse + self.modify:
            return "modify"
        return "new"

    def choose_rule(self, rng: random.Random) -> str:
        total = sum(weight for _, weight in self.rule_weights)
        roll = rng.random() * total
        cumulative = 0.0
        for rule, weight in self.rule_weights:
            cumulative += weight
            if roll < cumulative:
                return rule
        return self.rule_weights[-1][0]

    def choose_placement(self, rng: random.Random) -> str:
        total = sum(weight for _, weight in self.placement_weights)
        roll = rng.random() * total
        cumulative = 0.0
        for placement, weight in self.placement_weights:
            cumulative += weight
            if roll < cumulative:
                return placement
        return self.placement_weights[-1][0]
