"""The PCFG-based PSM (Weir et al. S&P'09; Houshmand & Aggarwal ACSAC'12).

Passwords are segmented into maximal letter (L), digit (D) and symbol
(S) runs; the *base structure* (e.g. ``L8D3`` for ``password123``) and
the content of every segment are learned from the training set by
counting.  Following Ma et al. (S&P 2014) — and the paper's Sec. IV-A —
letter-segment probabilities are learned directly from training rather
than from an external dictionary.

``P(pw) = P(structure) * prod_i P(segment_i | class, length)``

The meter doubles as a cracking model: :meth:`iter_guesses` outputs
guesses in decreasing probability (used for Table III and Fig. 10).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.meters.base import ProbabilisticMeter
from repro.meters.registry import Capability, register_meter
from repro.metrics.enumeration import (
    deduplicate_guesses,
    descending_products,
    merge_weighted_descending,
)
from repro.util.charclasses import CharClass, segment_by_class
from repro.util.freqdist import FrequencyDistribution

#: One slot of a base structure: (character class, run length).
Slot = Tuple[CharClass, int]
#: Training entries may carry a multiplicity.
PasswordEntry = Union[str, Tuple[str, int]]


def password_slots(password: str) -> Tuple[Slot, ...]:
    """The (class, length) slots of a password.

    >>> password_slots("password123")
    ((<CharClass.LETTER: 'L'>, 8), (<CharClass.DIGIT: 'D'>, 3))
    """
    return tuple(
        (seg.char_class, len(seg.text)) for seg in segment_by_class(password)
    )


def structure_string(slots: Tuple[Slot, ...]) -> str:
    """Display form, e.g. ``L8D3``."""
    return "".join(f"{cls.value}{length}" for cls, length in slots)


@register_meter(
    "pcfg",
    capabilities=(
        Capability.TRAINABLE,
        Capability.UPDATABLE,
        Capability.PERSISTABLE,
    ),
    summary="Traditional PCFG meter (Weir et al.) trained by counting",
)
class PCFGMeter(ProbabilisticMeter):
    """Traditional PCFG meter with counts learned from a training set.

    >>> meter = PCFGMeter.train(["password123", "password123", "dragon1"])
    >>> meter.probability("password123") > meter.probability("dragon1")
    True
    >>> meter.probability("zzzz") == 0.0
    True
    """

    name = "PCFG"

    def __init__(self) -> None:
        self._structures: FrequencyDistribution[Tuple[Slot, ...]] = (
            FrequencyDistribution()
        )
        self._segments: Dict[Slot, FrequencyDistribution[str]] = {}

    # --- training / update ---------------------------------------------

    @classmethod
    def train(cls, training: Iterable[PasswordEntry]) -> "PCFGMeter":
        meter = cls()
        for entry in training:
            if isinstance(entry, str):
                password, count = entry, 1
            else:
                password, count = entry
            if password:
                meter.update(password, count)
        return meter

    def update(self, password: str, count: int = 1) -> None:
        """Count one password into the structure and segment tables.

        This is the online update phase of the unified lifecycle
        (:class:`repro.meters.registry.Updatable`).
        """
        if not password:
            raise ValueError("cannot observe an empty password")
        segments = segment_by_class(password)
        slots = tuple((seg.char_class, len(seg.text)) for seg in segments)
        self._structures.add(slots, count)
        for slot, segment in zip(slots, segments):
            table = self._segments.setdefault(slot, FrequencyDistribution())
            table.add(segment.text, count)

    # --- measuring ---------------------------------------------------------

    def probability(self, password: str) -> float:
        if not password:
            return 0.0
        segments = segment_by_class(password)
        slots = tuple((seg.char_class, len(seg.text)) for seg in segments)
        probability = self._structures.probability(slots)
        if probability == 0.0:
            return 0.0
        for slot, segment in zip(slots, segments):
            table = self._segments.get(slot)
            if table is None:
                return 0.0
            probability *= table.probability(segment.text)
            if probability == 0.0:
                return 0.0
        return probability

    def probability_many(self, passwords: Iterable[str]) -> List[float]:
        """Batch scoring with a per-batch distinct-password memo.

        Measuring streams are Zipf-shaped (a few passwords dominate),
        so scoring each *distinct* password once cuts most of the
        segmentation work.  Results are bit-identical to the base loop
        because :meth:`probability` is pure.
        """
        memo: Dict[str, float] = {}
        out: List[float] = []
        probability = self.probability
        for password in passwords:
            value = memo.get(password)
            if value is None:
                value = memo[password] = probability(password)
            out.append(value)
        return out

    # --- introspection -------------------------------------------------------

    @property
    def total_passwords(self) -> int:
        return self._structures.total

    def structures(self) -> List[Tuple[str, int]]:
        """(display structure, count), most common first."""
        return [
            (structure_string(slots), count)
            for slots, count in self._structures.most_common()
        ]

    def single_simple_structure_fraction(self) -> float:
        """Fraction of training mass in one-or-two-slot structures.

        The paper contrasts fuzzyPSM (>80% single ``B_m`` structures)
        with traditional PCFG (>50% ``L_m D_n`` or more complex).
        """
        if self._structures.total == 0:
            return 0.0
        simple = sum(
            count
            for slots, count in self._structures.items()
            if len(slots) == 1
        )
        return simple / self._structures.total

    # --- serialisation ----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot of both count tables."""
        return {
            "structures": [
                [[[cls.value, length] for cls, length in slots], count]
                for slots, count in self._structures.items()
            ],
            "segments": {
                f"{cls.value}{length}": dict(table.items())
                for (cls, length), table in self._segments.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PCFGMeter":
        meter = cls()
        for raw_slots, count in data["structures"]:
            slots = tuple(
                (CharClass(value), length) for value, length in raw_slots
            )
            meter._structures.add(slots, count)
        for key, table in data["segments"].items():
            slot = (CharClass(key[0]), int(key[1:]))
            dist = meter._segments.setdefault(slot, FrequencyDistribution())
            for text, count in table.items():
                dist.add(text, count)
        return meter

    # --- cracking-model interface ----------------------------------------------

    def sample(self, rng: random.Random) -> Tuple[str, float]:
        if self._structures.total == 0:
            raise ValueError("cannot sample from an untrained meter")
        slots = _sample_freqdist(self._structures, rng)
        pieces: List[str] = []
        probability = self._structures.probability(slots)
        for slot in slots:
            table = self._segments[slot]
            text = _sample_freqdist(table, rng)
            probability *= table.probability(text)
            pieces.append(text)
        return "".join(pieces), probability

    def iter_guesses(self, limit: Optional[int] = None
                     ) -> Iterator[Tuple[str, float]]:
        """Guesses in decreasing probability (Weir's next function)."""
        total = self._structures.total
        if total == 0:
            return
        sorted_segments: Dict[Slot, List[Tuple[str, float]]] = {}

        def slot_options(slot: Slot) -> List[Tuple[str, float]]:
            if slot not in sorted_segments:
                table = self._segments[slot]
                sorted_segments[slot] = [
                    (text, count / table.total)
                    for text, count in table.most_common()
                ]
            return sorted_segments[slot]

        def structure_stream(slots: Tuple[Slot, ...]
                             ) -> Iterator[Tuple[str, float]]:
            factors = [slot_options(slot) for slot in slots]
            for values, probability in descending_products(factors):
                yield "".join(values), probability

        streams = [
            (count / total, structure_stream(slots))
            for slots, count in self._structures.most_common()
        ]
        stream = deduplicate_guesses(merge_weighted_descending(streams))
        for index, item in enumerate(stream):
            if limit is not None and index >= limit:
                return
            yield item


def _sample_freqdist(dist: FrequencyDistribution, rng: random.Random):
    target = rng.random() * dist.total
    cumulative = 0
    item = None
    for item, count in dist.items():
        cumulative += count
        if cumulative > target:
            return item
    return item
