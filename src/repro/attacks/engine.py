"""The unified attack engine: FrozenGrammar-backed guess generation.

Every attacker-facing consumer — exact enumeration, Monte-Carlo guess
numbers, cracking curves, online/offline simulation, mask compilation —
used to re-derive guesses through the slow training-side path:
``FuzzyPSM.iter_guesses`` walked dict-of-FrequencyDistribution tables,
built a :class:`~repro.core.grammar.DerivedSegment` dataclass per
variant per structure, and paid a ``descending_products`` heap (with
its seen-set) per structure plus an outer weighted merge.  That layout
mirrors training; attack workloads enumerate millions of guesses from
a grammar that does not change mid-run.

:class:`AttackEngine` is the compiled counterpart, sitting on the
:class:`~repro.core.frozen.FrozenGrammar` flat tables (PR 5) the same
way batch scoring does:

* **slots** — per segment length, variants ``(surface, factor,
  segment)`` are materialized once into parallel lists, in descending
  factor order, and shared by every structure that references the
  length.  A guess is then a tuple of list indices; its surface is a
  string join and its probability a short product over cached floats.
  The snapshot stores each terminal's leet rules without offsets, so a
  terminal's ``(offset, rule)`` run is derived from its base when a
  slot stream opens the terminal (and when the sampler first draws it).
* **one global heap** — instead of one lattice walk per structure
  merged pairwise, a single frontier over ``(structure, index-vector)``
  nodes yields guesses in globally descending order.  Successors use
  the canonical-parent rule (push ``v + e_j`` only when every
  coordinate after ``j`` is zero), so each node is generated exactly
  once and no seen-set is needed — the data structure that made the
  old path's memory grow with guesses emitted.
* **bit-identical probabilities** — factors are multiplied in exactly
  the order of :meth:`FrozenGrammar.derivation_probability` (terminal,
  capitalization, reverse, all-caps, then leet factors in offset
  order; segment factors folded left-to-right into the structure
  probability), so every emitted probability equals the reference
  kernel's value bit for bit (asserted by
  ``tests/test_attacks_engine.py``).

The engine only emits guesses with probability > 0.  The pre-engine
enumerator, now the engine's test oracle
(``tests/enumeration_oracle.py``), appends a tail of zero-probability
variants (unreachable under the modelled attacker); pruning them is
what lets the frontier skip whole sub-lattices.

**Beam mode.**  ``Beam(width, floor)`` bounds the frontier for
10^7-scale materialization: nodes below the probability ``floor`` are
pruned exactly (the lattice is monotone, so every descendant is also
below the floor — enumeration above the floor is unaffected, which the
hypothesis differential asserts), while ``width`` caps frontier memory
by evicting the least probable nodes once the frontier reaches twice
the width (amortized O(log width) per push).  Width eviction is lossy
— an evicted node's descendants are lost too — so the dropped count
and probability mass are reported via ``attack.beam.*`` telemetry and
:class:`EnumerationStats`.

**Sampling.**  :class:`FrozenSampler` draws derivations from
cumulative arrays with ``bisect``, rejects draws that are not the
canonical parse of their surface (``FuzzyPSM.sample``'s contract; at
most :data:`SAMPLE_ATTEMPTS` draws per sample) and scores accepted
draws through the frozen kernel.  It is the only
sampler of the fuzzy grammar.  ``AttackEngine.sample`` delegates to
it, so the engine plugs straight into
:class:`~repro.metrics.guessnumber.MonteCarloEstimator`.

All consumers receive a :class:`GuessStream` — a named iterator of
``(surface, probability)`` pairs in descending probability order, each
surface once — which is also what baseline meters' ``iter_guesses``
wrap into, so simulators and crossover curves are meter-agnostic.  The
raw stream, where distinct derivations of one surface each appear, is
:meth:`AttackEngine.derivations`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import accumulate
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro import obs
from repro.core.frozen import FrozenGrammar
from repro.core.grammar import Derivation, DerivedSegment, Structure
from repro.util.leet import (
    LEET_BY_LETTER,
    LEET_BY_SUBSTITUTE,
    LeetRun,
    leet_run,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.meter import FuzzyPSM
    from repro.meters.base import ProbabilisticMeter

#: Pops between telemetry flushes: per-guess probe calls would eat the
#: very speedup the engine exists for (same stance as batch scoring).
_FLUSH_EVERY = 4096

#: Draws :meth:`FrozenSampler.sample` makes before it gives up on a
#: canonical one and returns the last surface with its measured
#: probability.
SAMPLE_ATTEMPTS = 1000


@dataclass(frozen=True)
class Beam:
    """Bounds for a bounded-beam enumeration.

    Attributes:
        width: maximum heap frontier size; ``None`` means unbounded.
            Eviction keeps the most probable nodes and is *lossy*
            (descendants of evicted nodes are unreachable).
        floor: prune nodes with probability strictly below this value.
            Floor pruning is *exact* for the kept region: the product
            lattice is monotone, so everything at or above the floor
            is still enumerated in order.
    """

    width: Optional[int] = None
    floor: float = 0.0

    def __post_init__(self) -> None:
        if self.width is not None and self.width < 1:
            raise ValueError("beam width must be >= 1")
        if self.floor < 0.0:
            raise ValueError("beam floor must be >= 0.0")


@dataclass
class EnumerationStats:
    """Counters of one enumeration run (mirrored to ``attack.*``)."""

    pops: int = 0
    pushes: int = 0
    yielded: int = 0
    floor_dropped: int = 0
    width_dropped: int = 0
    #: Probability mass of dropped *nodes* (descendants not included),
    #: i.e. a lower bound on the total mass the beam gave up.
    dropped_mass: float = 0.0


class GuessStream:
    """A named stream of ``(surface, probability)`` pairs, descending.

    The one abstraction every attack consumer accepts: simulators,
    cracking curves, Monte-Carlo cross-checks and mask compilation all
    iterate a ``GuessStream`` without caring whether it came from the
    fuzzyPSM engine, a baseline meter's ``iter_guesses`` or a replayed
    wordlist.  Tracks how many guesses it has yielded so far.
    """

    def __init__(
        self,
        source: Iterable[Tuple[str, float]],
        name: str = "guesses",
        stats: Optional[EnumerationStats] = None,
    ) -> None:
        self._iterator = iter(source)
        self.name = name
        self.yielded = 0
        #: Populated for engine-backed streams; ``None`` otherwise.
        self.stats = stats

    def __iter__(self) -> Iterator[Tuple[str, float]]:
        # A counting generator instead of per-item ``__next__`` dispatch:
        # resuming a generator frame is measurably cheaper than a Python
        # method call, and this wrapper sits on every guess emitted.
        for item in self._iterator:
            self.yielded += 1
            yield item

    def __next__(self) -> Tuple[str, float]:
        item = next(self._iterator)
        self.yielded += 1
        return item

    def head(self, count: int) -> List[Tuple[str, float]]:
        """Materialize the next ``count`` guesses (fewer at the end)."""
        out: List[Tuple[str, float]] = []
        for item in self:
            out.append(item)
            if len(out) >= count:
                break
        return out


class _Slot:
    """Variants of one segment length, materialized on demand.

    Parallel lists in descending factor order; ``ensure(i)`` pulls from
    the merged per-terminal stream until index ``i`` exists.  Slots are
    append-only and shared across structures and enumeration runs.
    """

    __slots__ = ("surfaces", "factors", "segments", "_source")

    def __init__(
        self, source: Iterator[Tuple[str, float, DerivedSegment]]
    ) -> None:
        self.surfaces: List[str] = []
        self.factors: List[float] = []
        self.segments: List[DerivedSegment] = []
        self._source: Optional[Iterator[Tuple[str, float, DerivedSegment]]] = (
            source
        )

    def ensure(self, index: int) -> bool:
        surfaces = self.surfaces
        while len(surfaces) <= index:
            source = self._source
            if source is None:
                return False
            item = next(source, None)
            if item is None:
                self._source = None
                return False
            surfaces.append(item[0])
            self.factors.append(item[1])
            self.segments.append(item[2])
        return True


class AttackEngine:
    """Compiled guess generator for one trained :class:`FuzzyPSM`.

    Built from the meter's frozen grammar snapshot; ``is_current``
    reports staleness against the live grammar's epoch the same way
    :class:`FrozenGrammar` does, so holders rebuild lazily after
    updates (``FuzzyPSM.attack_engine`` does this for you).
    """

    def __init__(self, meter: "FuzzyPSM") -> None:
        self._meter = meter
        self._frozen: FrozenGrammar = meter.frozen_grammar()
        self._trie = meter.trie
        self._config = meter.config
        self._slots: Dict[int, _Slot] = {}
        #: ``(structure, probability, slots)`` in descending probability
        #: order (ties broken by the structure tuple, deterministically).
        self._structures: List[Tuple[Structure, float, Tuple[_Slot, ...]]] = []
        for structure, probability in sorted(
            self._frozen.structure_table().items(),
            key=lambda item: (-item[1], item[0]),
        ):
            slots = tuple(self._slot(length) for length in structure)
            self._structures.append((structure, probability, slots))
        self._sampler: Optional[FrozenSampler] = None

    # --- staleness ------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Grammar epoch the engine's tables were compiled at."""
        return self._frozen.epoch

    def is_current(self) -> bool:
        """True while the source meter's grammar is unchanged."""
        return self._frozen.is_current(self._meter.grammar)

    # --- public streams -------------------------------------------------

    def guesses(
        self,
        limit: Optional[int] = None,
        beam: Optional[Beam] = None,
    ) -> GuessStream:
        """Guesses in decreasing probability order, each surface once.

        A repeated surface is dropped, keeping its first (most
        probable) occurrence — the meter-facing semantics; the raw
        derivation-level stream is :meth:`derivations`.

        Args:
            limit: stop after this many guesses (``None`` = exhaustive).
            beam: optional :class:`Beam` bounding the frontier.
        """
        stats = EnumerationStats()
        stream = self._finalize(
            self._enumerate(beam, stats, surfaces=True), limit
        )
        return GuessStream(stream, name=self._meter.name, stats=stats)

    def derivations(
        self, limit: Optional[int] = None, beam: Optional[Beam] = None
    ) -> Iterator[Tuple[str, float, Derivation]]:
        """Like :meth:`guesses` but with each guess's full derivation.

        Not deduplicated: distinct derivations of the same surface each
        appear.  This is the differential-test surface — the yielded
        probability must equal
        ``FrozenGrammar.derivation_probability(derivation.flat())``
        exactly.
        """
        count = 0
        for probability, s_pos, node in self._enumerate(
            beam, EnumerationStats()
        ):
            slots = self._structures[s_pos][2]
            surface = "".join(
                slots[i].surfaces[node[i]] for i in range(len(node))
            )
            derivation = Derivation(
                tuple(slots[i].segments[node[i]] for i in range(len(node)))
            )
            yield surface, probability, derivation
            count += 1
            if limit is not None and count >= limit:
                return

    def sample(self, rng: random.Random) -> Tuple[str, float]:
        """Draw ``(password, probability)`` from the model distribution.

        Duck-type compatible with ``ProbabilisticMeter.sample`` /
        ``MonteCarloEstimator``; see :class:`FrozenSampler`.
        """
        return self.sampler().sample(rng)

    def sampler(self) -> "FrozenSampler":
        """The engine's cumulative-table sampler (built lazily)."""
        if self._sampler is None:
            self._sampler = FrozenSampler(self._meter, self._frozen)
        return self._sampler

    # --- enumeration core -----------------------------------------------

    @staticmethod
    def _finalize(
        stream: Iterator[Tuple[str, float]],
        limit: Optional[int],
    ) -> Iterator[Tuple[str, float]]:
        """Surface-level post-processing in a single generator frame.

        Dedup (first occurrence wins — the semantics of
        :func:`~repro.metrics.enumeration.deduplicate_guesses`) and the
        guess limit are folded into one wrapper, so the hot path pays
        one frame here instead of one per concern.
        """
        remaining = limit
        seen: set = set()
        add = seen.add
        for item in stream:
            surface = item[0]
            if surface in seen:
                continue
            add(surface)
            yield item
            if remaining is not None:
                remaining -= 1
                if remaining <= 0:
                    return

    def _enumerate(
        self,
        beam: Optional[Beam],
        stats: EnumerationStats,
        surfaces: bool = False,
    ) -> Iterator[Tuple]:
        """Global best-first walk over every structure's product lattice.

        Yields ``(probability, structure_position, index_vector)``, or
        ``(surface, probability)`` pairs when ``surfaces`` is set (the
        guess hot path — joining the surface here saves a generator
        frame per guess), in descending probability order (ties:
        structure order, then index vector).  Canonical-parent
        successor generation: the node ``v + e_j`` is pushed only by
        the parent whose coordinates after ``j`` are all zero, so each
        lattice point enters the heap exactly once without a seen-set.

        This is a blessed FPM002 product kernel: factors multiply in
        the exact order of ``FrozenGrammar.derivation_probability`` and
        zero products are pruned (short-circuited) at push time.
        Successor products reuse the parent's left-to-right prefix
        products — ``prefixes[j]`` is exactly the kernel's first ``j``
        multiplications, so continuing from it preserves the float
        association bit for bit while cutting the per-child work from
        ``O(k)`` to ``O(k - j)``.

        Run counters are kept in locals (the loop is the engine's
        innermost) and synced into ``stats`` at every telemetry flush
        and on close.
        """
        floor = beam.floor if beam is not None else 0.0
        width = beam.width if beam is not None else None
        telemetry = obs.get()
        structures = self._structures
        pop = heappop
        push = heappush
        pops = pushes = yielded = 0
        floor_dropped = width_dropped = 0
        dropped_mass = 0.0
        heap: List[Tuple[float, int, Tuple[int, ...]]] = []
        for s_pos, (_structure, s_probability, slots) in enumerate(
            structures
        ):
            if any(not slot.ensure(0) for slot in slots):
                continue
            probability = s_probability
            for slot in slots:
                probability *= slot.factors[0]
            if probability == 0.0 or probability < floor:
                floor_dropped += 1
                dropped_mass += probability
                continue
            push(heap, (-probability, s_pos, (0,) * len(slots)))
            pushes += 1
        flushed = EnumerationStats()
        next_flush = _FLUSH_EVERY
        try:
            while heap:
                neg_probability, s_pos, node = pop(heap)
                pops += 1
                yielded += 1
                entry = structures[s_pos]
                slots = entry[2]
                if surfaces:
                    yield "".join(
                        [slot.surfaces[i] for slot, i in zip(slots, node)]
                    ), -neg_probability
                else:
                    yield -neg_probability, s_pos, node
                s_probability = entry[1]
                k = len(node)
                r = 0
                for i in range(k - 1, -1, -1):
                    if node[i]:
                        r = i
                        break
                # prefixes[i]: structure probability folded with the
                # first i factors, in kernel order.
                prefix = s_probability
                prefixes = [prefix]
                for i in range(k):
                    prefix *= slots[i].factors[node[i]]
                    prefixes.append(prefix)
                for j in range(r, k):
                    next_index = node[j] + 1
                    slot_j = slots[j]
                    factors_j = slot_j.factors
                    if next_index >= len(factors_j) and not (
                        slot_j.ensure(next_index)
                    ):
                        continue
                    probability = prefixes[j] * factors_j[next_index]
                    for i in range(j + 1, k):
                        probability *= slots[i].factors[node[i]]
                    if probability == 0.0 or probability < floor:
                        floor_dropped += 1
                        dropped_mass += probability
                        continue
                    child = node[:j] + (next_index,) + node[j + 1:]
                    push(heap, (-probability, s_pos, child))
                    pushes += 1
                if width is not None and len(heap) > 2 * width:
                    heap.sort()
                    evicted = heap[width:]
                    del heap[width:]
                    width_dropped += len(evicted)
                    for evicted_entry in evicted:
                        dropped_mass += -evicted_entry[0]
                if yielded >= next_flush:
                    next_flush = yielded + _FLUSH_EVERY
                    stats.pops = pops
                    stats.pushes = pushes
                    stats.yielded = yielded
                    stats.floor_dropped = floor_dropped
                    stats.width_dropped = width_dropped
                    stats.dropped_mass = dropped_mass
                    self._flush(telemetry, stats, flushed)
        finally:
            stats.pops = pops
            stats.pushes = pushes
            stats.yielded = yielded
            stats.floor_dropped = floor_dropped
            stats.width_dropped = width_dropped
            stats.dropped_mass = dropped_mass
            self._flush(telemetry, stats, flushed)

    @staticmethod
    def _flush(
        telemetry: "obs.Telemetry",
        stats: EnumerationStats,
        flushed: EnumerationStats,
    ) -> None:
        """Mirror run counter deltas into ``attack.*``, batched.

        Per-guess probe calls would dominate the hot loop, so counters
        accumulate locally in ``stats`` and only the delta since the
        last flush is emitted (every ``_FLUSH_EVERY`` yields and once
        at stream close).  Dropped probability mass — a float — is
        reported in integer parts-per-billion.
        """
        if telemetry.enabled:
            dropped_ppb = int(stats.dropped_mass * 10**9)
            flushed_ppb = int(flushed.dropped_mass * 10**9)
            telemetry.incr_many([
                ("attack.enum.yields", stats.yielded - flushed.yielded),
                ("attack.enum.pushes", stats.pushes - flushed.pushes),
                ("attack.beam.floor_dropped",
                 stats.floor_dropped - flushed.floor_dropped),
                ("attack.beam.width_dropped",
                 stats.width_dropped - flushed.width_dropped),
                ("attack.beam.dropped_mass_ppb",
                 dropped_ppb - flushed_ppb),
            ])
        flushed.yielded = stats.yielded
        flushed.pushes = stats.pushes
        flushed.floor_dropped = stats.floor_dropped
        flushed.width_dropped = stats.width_dropped
        flushed.dropped_mass = stats.dropped_mass

    # --- slot construction ----------------------------------------------

    def _slot(self, length: int) -> _Slot:
        slot = self._slots.get(length)
        if slot is None:
            slot = _Slot(self._slot_stream(length))
            self._slots[length] = slot
        return slot

    def _slot_stream(
        self, length: int
    ) -> Iterator[Tuple[str, float, DerivedSegment]]:
        """Descending variant stream for one ``B_n`` slot.

        Merges the per-terminal lattices of every interned terminal of
        this length.  Terminals enter the merge lazily, in descending
        terminal-probability order: a terminal's first variant factor
        is at most its terminal probability, so the merge only *opens*
        (builds the lattice generator of) a terminal once the frontier
        drops to its probability — enumerating the top of a heavy slot
        never touches the long tail of rare terminals.

        Ties (equal probability, then equal variant factor) break on
        the base string, never on table position: interned-table order
        is an artifact of training/deserialization order, and a
        persisted meter must replay the identical guess stream.
        """
        entry = self._frozen.terminal_table(length)
        if entry is None:
            return
        index, probabilities, _rules = entry
        bases = list(index)
        order = sorted(
            range(len(bases)), key=lambda i: (-probabilities[i], bases[i])
        )
        heap: List[
            Tuple[float, str, Tuple[str, float, DerivedSegment],
                  Iterator[Tuple[str, float, DerivedSegment]]]
        ] = []
        cursor = 0
        while True:
            # Open every not-yet-started terminal that could outrank
            # the best realized variant.
            while cursor < len(order) and (
                not heap or probabilities[order[cursor]] >= -heap[0][0]
            ):
                position = order[cursor]
                cursor += 1
                # The snapshot keeps only the rules; the lattice needs
                # the offsets too, derived once as the terminal opens.
                stream = self._terminal_stream(
                    bases[position],
                    probabilities[position],
                    leet_run(bases[position]),
                )
                first = next(stream, None)
                if first is not None:
                    heappush(
                        heap, (-first[1], bases[position], first, stream)
                    )
            if not heap:
                return
            _neg, base, item, stream = heappop(heap)
            yield item
            following = next(stream, None)
            if following is not None:
                heappush(
                    heap, (-following[1], base, following, stream)
                )

    def _terminal_stream(
        self,
        base: str,
        t_probability: float,
        run: LeetRun,
    ) -> Iterator[Tuple[str, float, DerivedSegment]]:
        """Descending ``(surface, factor, segment)`` for one terminal.

        The variant lattice of one stored base: one dimension for the
        case/reverse choice, one boolean dimension per leet-able
        offset.  Walked best-first with canonical-parent successors.

        Blessed FPM002 kernel: each variant's factor repeats the exact
        multiplication order of ``FrozenGrammar.derivation_probability``
        for one segment — terminal probability, capitalization,
        reverse, all-caps, then the leet pair factors of ``run`` in
        offset order — and exact zeros prune the sub-lattice.
        """
        options = self._case_options(base, t_probability)
        if not options:
            return
        if not run:
            for factor, capitalized, reversed_word, all_caps, surface in (
                options
            ):
                yield surface, factor, DerivedSegment(
                    base, capitalized, (), reversed_word, all_caps
                )
            return
        leet_pairs = self._frozen.leet_pairs
        dims: List[Tuple[Tuple[bool, float], ...]] = []
        partners: List[str] = []
        for offset, rule in run:
            pair = leet_pairs[rule]
            choices = tuple(
                sorted(
                    (
                        choice
                        for choice in ((False, pair[0]), (True, pair[1]))
                        if choice[1] > 0.0
                    ),
                    key=lambda choice: (-choice[1], choice[0]),
                )
            )
            if not choices:
                # Untrained leet rule: every variant of this terminal
                # has a zero factor in the kernel — prune the terminal.
                return
            dims.append(choices)
            ch = base[offset]
            partners.append(
                LEET_BY_LETTER.get(ch) or LEET_BY_SUBSTITUTE[ch]
            )
        sizes = (len(options),) + tuple(len(d) for d in dims)
        k = len(sizes)
        zero = (0,) * k

        def emit(
            node: Tuple[int, ...], factor: float
        ) -> Tuple[str, float, DerivedSegment]:
            head = options[node[0]]
            fired = [
                d for d in range(k - 1) if dims[d][node[d + 1]][0]
            ]
            capitalized, reversed_word, all_caps = head[1], head[2], head[3]
            if not fired:
                surface = head[4]
                toggles: Tuple[int, ...] = ()
            else:
                chars = list(base)
                offsets = []
                for d in fired:
                    offset = run[d][0]
                    chars[offset] = partners[d]
                    offsets.append(offset)
                toggles = tuple(offsets)
                if all_caps:
                    chars = [c.upper() for c in chars]
                elif capitalized:
                    chars[0] = chars[0].upper()
                text = "".join(chars)
                surface = text[::-1] if reversed_word else text
            return surface, factor, DerivedSegment(
                base, capitalized, toggles, reversed_word, all_caps
            )

        factor = options[0][0]
        for d in range(k - 1):
            factor *= dims[d][0][1]
        if factor == 0.0:
            return
        heap: List[Tuple[float, Tuple[int, ...]]] = [(-factor, zero)]
        while heap:
            neg, node = heappop(heap)
            yield emit(node, -neg)
            r = 0
            for i in range(k - 1, -1, -1):
                if node[i]:
                    r = i
                    break
            for j in range(r, k):
                next_index = node[j] + 1
                if next_index >= sizes[j]:
                    continue
                factor = options[node[0] if j else next_index][0]
                for d in range(k - 1):
                    factor *= dims[d][
                        next_index if d + 1 == j else node[d + 1]
                    ][1]
                if factor == 0.0:
                    continue
                child = node[:j] + (next_index,) + node[j + 1:]
                heappush(heap, (-factor, child))

    def _case_options(
        self, base: str, t_probability: float
    ) -> List[Tuple[float, bool, bool, bool, str]]:
        """Case/reverse head options for one base, descending.

        Mirrors the enumeration gates of the pre-engine enumerator,
        kept as this engine's test oracle
        (``tests/enumeration_oracle.py``) — only variants the canonical
        parse can report are emitted, so enumerated and measured
        probabilities agree — but reads the frozen pairs and computes
        the head factor in kernel order (terminal, capitalization,
        reverse, all-caps).  Zero-probability options are pruned, which
        is the blessed-kernel short-circuit.  Each option carries its
        precomputed toggle-free surface.
        """
        frozen = self._frozen
        cap_pair = frozen.capitalization_pair
        rev_pair = frozen.reverse_pair
        ac_pair = frozen.allcaps_pair
        options: List[Tuple[float, bool, bool, bool, str]] = []

        def add(cap: bool, rev: bool, ac: bool) -> None:
            factor = t_probability
            factor *= cap_pair[cap]
            factor *= rev_pair[rev]
            factor *= ac_pair[ac]
            if factor == 0.0:
                return
            if ac:
                surface = "".join(ch.upper() for ch in base)
            elif cap:
                surface = base[0].upper() + base[1:]
            else:
                surface = base
            if rev:
                surface = surface[::-1]
            options.append((factor, cap, rev, ac, surface))

        add(False, False, False)
        if base[:1].islower():
            add(True, False, False)
        if (
            self._config.allow_reverse
            and rev_pair[1] > 0.0
            and base != base[::-1]
            and base in self._trie
        ):
            add(False, True, False)
        if (
            self._config.allow_allcaps
            and ac_pair[1] > 0.0
            and base in self._trie
            and base[1:] != base[1:].upper()
        ):
            add(False, False, True)
        options.sort(
            key=lambda option: (-option[0], option[1:4])
        )
        return options


class FrozenSampler:
    """Cumulative-table sampler over a frozen grammar snapshot.

    The sampler compiles cumulative probability arrays once and draws
    structures and terminals with ``bisect`` in O(log table size),
    with the semantics of ``FuzzyPSM.sample``: non-canonical draws
    (sampled derivation != the surface's canonical parse) are rejected
    and redrawn, and the returned probability comes from the frozen
    kernel, so the pair is always consistent with
    ``meter.probability``.
    """

    def __init__(self, meter: "FuzzyPSM", frozen: FrozenGrammar) -> None:
        self._meter = meter
        self._frozen = frozen
        items = sorted(
            self._frozen.structure_table().items(),
            key=lambda item: (-item[1], item[0]),
        )
        self._structure_values: List[Structure] = [
            structure for structure, _ in items
        ]
        self._structure_cumulative: List[float] = list(
            accumulate(probability for _, probability in items)
        )
        self._terminal_cumulative: Dict[
            int, Tuple[List[str], List[float]]
        ] = {}
        #: The ``(offset, rule)`` leet run of every base drawn so far;
        #: the snapshot keeps only the rules, and draws repeat bases.
        self._runs: Dict[str, LeetRun] = {}

    def _terminal_tables(
        self, length: int
    ) -> Optional[Tuple[List[str], List[float]]]:
        tables = self._terminal_cumulative.get(length)
        if tables is None:
            entry = self._frozen.terminal_table(length)
            if entry is None:
                return None
            index, probabilities, _rules = entry
            tables = (list(index), list(accumulate(probabilities)))
            self._terminal_cumulative[length] = tables
        return tables

    def sample(self, rng: random.Random) -> Tuple[str, float]:
        """Draw ``(password, probability)``; canonical-parse rejection.

        After :data:`SAMPLE_ATTEMPTS` non-canonical draws the last
        surface is returned with its canonical (measured) probability,
        exactly like ``FuzzyPSM.sample`` — the pair stays
        self-consistent.
        """
        from bisect import bisect_right

        cumulative = self._structure_cumulative
        if not cumulative or cumulative[-1] == 0.0:
            raise ValueError("cannot sample from an untrained grammar")
        telemetry = obs.get()
        meter = self._meter
        frozen = self._frozen
        surface = ""
        for attempt in range(SAMPLE_ATTEMPTS):
            derivation = self._draw(rng, bisect_right)
            if derivation is None:
                break
            surface = derivation.surface()
            parsed = meter.parse(surface)
            if parsed.to_derivation() == derivation:
                if telemetry.enabled:
                    telemetry.incr("attack.sample.draws", attempt + 1)
                return surface, frozen.derivation_probability(parsed.flat)
        if telemetry.enabled:
            telemetry.incr("attack.sample.fallbacks")
        return surface, frozen.derivation_probability(
            meter.parse(surface).flat
        )

    def _draw(self, rng: random.Random, bisect_right) -> Optional[Derivation]:
        cumulative = self._structure_cumulative
        if not cumulative or cumulative[-1] == 0.0:
            return None
        target = rng.random() * cumulative[-1]
        s_index = min(
            bisect_right(cumulative, target), len(cumulative) - 1
        )
        structure = self._structure_values[s_index]
        cap_pair = self._frozen.capitalization_pair
        rev_pair = self._frozen.reverse_pair
        ac_pair = self._frozen.allcaps_pair
        leet_pairs = self._frozen.leet_pairs
        segments: List[DerivedSegment] = []
        for length in structure:
            tables = self._terminal_tables(length)
            if tables is None:
                return None
            bases, terminal_cumulative = tables
            target = rng.random() * terminal_cumulative[-1]
            t_index = min(
                bisect_right(terminal_cumulative, target),
                len(bases) - 1,
            )
            base = bases[t_index]
            capitalized = (
                base[:1].islower() and rng.random() < cap_pair[1]
            )
            reversed_word = rng.random() < rev_pair[1]
            all_caps = (
                not capitalized and rng.random() < ac_pair[1]
            )
            run = self._runs.get(base)
            if run is None:
                run = self._runs[base] = leet_run(base)
            toggles = tuple(
                offset
                for offset, rule in run
                if rng.random() < leet_pairs[rule][1]
            )
            segments.append(
                DerivedSegment(
                    base, capitalized, toggles, reversed_word, all_caps
                )
            )
        return Derivation(tuple(segments))


def guess_stream_for(
    meter: "ProbabilisticMeter",
    limit: Optional[int] = None,
    beam: Optional[Beam] = None,
) -> GuessStream:
    """A :class:`GuessStream` for any probabilistic meter.

    FuzzyPSM meters get the compiled engine (beam supported); other
    meters wrap their ``iter_guesses`` so simulators and crossover
    curves stay meter-agnostic.
    """
    attack_engine = getattr(meter, "attack_engine", None)
    if attack_engine is not None:
        return attack_engine().guesses(limit=limit, beam=beam)
    iter_guesses = getattr(meter, "iter_guesses", None)
    if iter_guesses is None:
        raise TypeError(
            f"{type(meter).__name__} cannot drive an attack: it has no "
            "guess enumeration (iter_guesses)"
        )
    return GuessStream(iter_guesses(limit=limit), name=meter.name)
