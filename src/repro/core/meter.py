"""fuzzyPSM — the public train / measure / update API (paper Sec. IV-C).

Typical use::

    from repro import FuzzyPSM

    meter = FuzzyPSM.train(base_dictionary=rockyou, training=phpbb)
    meter.probability("P@ssw0rd123")   # higher = weaker
    meter.entropy("P@ssw0rd123")       # same, in bits
    meter.update("newpassword1")       # update phase

The meter is a :class:`~repro.meters.base.ProbabilisticMeter`: it can
also output guesses in decreasing probability (making it a cracking
tool, paper footnote 6) and be sampled for Monte-Carlo guess numbers.
"""

from __future__ import annotations

import random
from array import array
from collections import OrderedDict
from dataclasses import asdict, dataclass, fields
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro import obs
from repro.core.frozen import FrozenGrammar
from repro.core.grammar import (
    FuzzyGrammar,
    leet_rule_for_char,
    structure_label,
)
from repro.core.parser import FuzzyParser, ParsedPassword, parse_tally
from repro.core.training import (
    DEFAULT_TRAIN_WINDOW,
    PasswordEntry,
    build_base_trie,
    is_count,
    train_grammar,
    train_grammar_streaming,
)
from repro.core.trie import PrefixTrie
from repro.meters.base import ProbabilisticMeter
from repro.meters.registry import Capability, TrainContext, register_meter
from repro.util.sections import check_partition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.attacks.engine import AttackEngine


@dataclass(frozen=True)
class FuzzyPSMConfig:
    """Tunables of the meter; defaults are the paper's choices.

    Attributes:
        min_base_length: basic passwords shorter than this are dropped
            from the trie (paper: 3).
        allow_capitalization: model the capitalize-first-letter rule.
        allow_leet: model the six leet rules of Table VI.
        allow_reverse: model the reverse rule — the paper's named
            future work ("substring movement and reverse are left as
            future research"); off by default to match the published
            meter exactly.
        allow_allcaps: model whole-word capitalization — the paper's
            limitation-#2 extension ("it only considers the
            capitalization of the first letter"); off by default.
        auto_update: when True, :meth:`FuzzyPSM.probability` feeds every
            measured password back through the update phase.  The paper
            updates on *accepted* passwords, so this defaults to False
            and :meth:`FuzzyPSM.update` is the explicit entry point.
        parse_cache_size: the most distinct passwords training
            counts per parse window (one parse each, see
            :mod:`repro.core.training`) and the capacity of the meter's
            score memo, which bulk scoring uses (``--parse-cache-size``
            on the CLI).  Zipf-shaped streams repeat their popular
            head within a window and hit the memo for it; raise it for
            wide sweeps, shrink it for memory-constrained deployments.
            A pure execution-strategy knob: count tables and scores do
            not depend on it.

    Flags must be ``bool`` and sizes positive ``int`` (not ``bool``);
    any other value raises ``ValueError`` naming the field, so a saved
    model or CLI value of the wrong type fails at load, not in scoring.
    """

    min_base_length: int = 3
    allow_capitalization: bool = True
    allow_leet: bool = True
    allow_reverse: bool = False
    allow_allcaps: bool = False
    auto_update: bool = False
    parse_cache_size: int = DEFAULT_TRAIN_WINDOW

    def __post_init__(self) -> None:
        # A string flag is truthy whatever it says, and a size that is
        # no positive int fails later inside the trainer or the memo.
        # Each field's default has the field's type.
        for option in fields(self):
            value = getattr(self, option.name)
            if isinstance(option.default, bool):
                if not isinstance(value, bool):
                    raise ValueError(
                        f"FuzzyPSMConfig.{option.name} must be a bool, "
                        f"got {value!r}"
                    )
            elif not is_count(value):
                raise ValueError(
                    f"FuzzyPSMConfig.{option.name} must be a positive "
                    f"integer, got {value!r}"
                )


def _load_config(saved: Dict[str, Any]) -> FuzzyPSMConfig:
    """The :class:`FuzzyPSMConfig` of a saved model.

    Only keys naming a current field are read.  Model files written
    before an option was retired still carry its key (older files name
    the trie matcher, which never changed a parse); it is dropped here,
    so such files load and re-save without it.
    """
    known = {option.name for option in fields(FuzzyPSMConfig)}
    return FuzzyPSMConfig(**{
        key: value for key, value in saved.items() if key in known
    })


@dataclass(frozen=True)
class Explanation:
    """Human-readable breakdown of a measurement (for UIs / examples)."""

    password: str
    probability: float
    structure: str
    segments: Tuple[Tuple[str, str], ...]  # (base, description) pairs

    def lines(self) -> List[str]:
        out = [
            f"password   : {self.password}",
            f"probability: {self.probability:.3e}",
            f"structure  : S -> {self.structure}",
        ]
        for base, description in self.segments:
            out.append(f"  segment {base!r}: {description}")
        return out


def _build_parser(trie: PrefixTrie, config: FuzzyPSMConfig) -> FuzzyParser:
    """The parser matching a meter config (one construction site)."""
    return FuzzyParser(
        trie,
        allow_capitalization=config.allow_capitalization,
        allow_leet=config.allow_leet,
        allow_reverse=config.allow_reverse,
        allow_allcaps=config.allow_allcaps,
    )


def score_many(
    parser: FuzzyParser,
    frozen: FrozenGrammar,
    passwords: Iterable[str],
    memo: Optional[OrderedDict[str, float]] = None,
    memo_size: int = 0,
) -> List[float]:
    """The batch scoring loop: one probability per input, in order.

    Real password streams are heavily repetitive (Zipf-shaped), so the
    final probability is memoised per distinct password within the
    batch and, given ``memo``, across batches: ``memo`` is an LRU of
    password -> probability under ``frozen`` that holds at most
    ``memo_size`` entries, so a repeat skips both parse and kernel.  A
    miss is parsed with the uncached :meth:`FuzzyParser.parse_flat`
    and its flat parse (:data:`~repro.core.grammar.FlatParse`) goes
    straight into the frozen scoring kernel: no object is built per
    segment, and none is kept.  Values are bit-identical to per-call
    :meth:`FuzzyPSM.probability`.  This is the only copy of the loop:
    :meth:`FuzzyPSM.probability_many` passes its score memo; a caller
    that must not share that memo passes none.
    """
    telemetry = obs.get()
    parse = parser.parse_flat
    score = frozen.derivation_probability
    batch: Dict[str, float] = {}
    out: List[float] = []
    misses = evictions = 0
    # Probes stay at batch granularity: the parse probes are counted as
    # plain ints into one tally (only when telemetry is enabled) and
    # folded in once, after the loop.  Memo hits are not counted: they
    # are the distinct passwords that neither missed nor were empty.
    with parse_tally() as tally, telemetry.timer("meter.batch.seconds"):
        for password in passwords:
            probability = batch.get(password)
            if probability is None:
                if memo is not None and password in memo:
                    memo.move_to_end(password)
                    probability = memo[password]
                elif password:
                    probability = score(parse(password, tally))
                    misses += 1
                    if memo is not None:
                        memo[password] = probability
                        if len(memo) > memo_size:
                            memo.popitem(last=False)
                            evictions += 1
                else:
                    probability = 0.0
                batch[password] = probability
            out.append(probability)
    if telemetry.enabled:
        telemetry.incr("meter.batch.calls")
        telemetry.incr("meter.batch.scores", len(out))
        telemetry.incr("meter.batch.distinct", len(batch))
        telemetry.incr("meter.memo.hit", len(batch) - misses - ("" in batch))
        telemetry.incr("meter.memo.miss", misses)
        telemetry.incr("meter.memo.evict", evictions)
        telemetry.observe("meter.batch.size", float(len(out)))
    return out


def _build_fuzzypsm(cls: type, context: TrainContext) -> "FuzzyPSM":
    """Registry builder: base dictionary + training + family options."""
    options = context.options
    return cls.train(
        base_dictionary=context.base_dictionary,
        training=list(context.training),
        config=options.get("fuzzy_config"),
    )


@register_meter(
    "fuzzypsm",
    capabilities=(
        Capability.TRAINABLE,
        Capability.STREAM_TRAINABLE,
        Capability.UPDATABLE,
        Capability.BATCH_SCORABLE,
        Capability.PERSISTABLE,
        Capability.BINARY_PERSISTABLE,
    ),
    summary="The paper's fuzzy-PCFG meter with an online update phase",
    builder=_build_fuzzypsm,
    requires_base_dictionary=True,
)
class FuzzyPSM(ProbabilisticMeter):
    """The fuzzy-PCFG password strength meter.

    Build with :meth:`train` (the normal path) or assemble from an
    existing :class:`FuzzyGrammar` and :class:`PrefixTrie` (e.g. after
    deserialising a stored model).
    """

    name = "fuzzyPSM"

    def __init__(self, grammar: FuzzyGrammar, trie: PrefixTrie,
                 config: Optional[FuzzyPSMConfig] = None) -> None:
        self._config = config or FuzzyPSMConfig()
        self._grammar = grammar
        self._trie = trie
        self._parser = _build_parser(trie, self._config)
        # Sorted base-word list, materialised at most once per trie
        # state (keyed on the word count) and shared by every
        # ``to_dict`` call — see :meth:`base_words`.
        self._base_words: Optional[List[str]] = None
        # Frozen scoring snapshot, built lazily by :meth:`frozen_grammar`
        # and invalidated by the grammar's epoch counter.
        self._frozen: Optional[FrozenGrammar] = None
        # Compiled attack engine (guess enumeration / sampling), built
        # lazily by :meth:`attack_engine` with the same epoch-keyed
        # invalidation as the frozen snapshot it sits on.
        self._attack_engine: Optional["AttackEngine"] = None
        # LRU of password -> probability under ``self._frozen``, kept
        # by :func:`score_many` for :meth:`probability_many` and
        # emptied whenever :meth:`frozen_grammar` hands out a new
        # epoch.  Holds at most ``config.parse_cache_size`` entries.
        self._score_memo: OrderedDict[str, float] = OrderedDict()

    # --- construction -------------------------------------------------

    @classmethod
    def train(cls, base_dictionary: Iterable[str],
              training: Iterable[PasswordEntry],
              config: Optional[FuzzyPSMConfig] = None) -> "FuzzyPSM":
        """Run the training phase and return a ready meter.

        Args:
            base_dictionary: passwords from a *less sensitive* service
                (the paper uses Rockyou / Tianya).
            training: passwords from a *sensitive* service (optionally
                ``(password, count)`` pairs).
            config: meter tunables; see :class:`FuzzyPSMConfig`.
        """
        config = config or FuzzyPSMConfig()
        trie = build_base_trie(
            base_dictionary, min_length=config.min_base_length
        )
        parser = _build_parser(trie, config)
        grammar = train_grammar(training, trie, parser=parser,
                                window=config.parse_cache_size)
        return cls(grammar, trie, config)

    @classmethod
    def train_streaming(
        cls,
        base_dictionary: Iterable[str],
        chunks: Iterable[Iterable[PasswordEntry]],
        config: Optional[FuzzyPSMConfig] = None,
    ) -> "FuzzyPSM":
        """Train from an out-of-core stream of entry chunks.

        The corpus-scale twin of :meth:`train`: ``chunks`` is an
        iterator of bounded ``(password, count)`` batches — typically
        :func:`repro.datasets.loaders.stream_corpus_chunks` over a
        RockYou-scale file — consumed exactly once, so peak memory is
        governed by the chunk size and the trainer's window of at most
        ``config.parse_cache_size`` distinct passwords, never the
        corpus.  The resulting grammar is byte-identical to an
        in-memory :meth:`train` over the concatenated entries
        (:func:`~repro.core.training.train_grammar_streaming`).
        """
        config = config or FuzzyPSMConfig()
        trie = build_base_trie(
            base_dictionary, min_length=config.min_base_length
        )
        parser = _build_parser(trie, config)
        grammar = train_grammar_streaming(
            chunks, trie, parser=parser, window=config.parse_cache_size,
        )
        return cls(grammar, trie, config)

    # --- accessors ------------------------------------------------------

    @property
    def grammar(self) -> FuzzyGrammar:
        return self._grammar

    @property
    def trie(self) -> PrefixTrie:
        return self._trie

    @property
    def config(self) -> FuzzyPSMConfig:
        return self._config

    @property
    def parser(self) -> FuzzyParser:
        """The meter's deterministic parser."""
        return self._parser

    def score_memo_info(self) -> Dict[str, int]:
        """Occupancy and capacity of the score memo.

        Hit/miss/evict *counts* live in telemetry (``meter.memo.*`` —
        see DESIGN.md §9); this reports the structural side so profile
        reports can show both.
        """
        return {
            "size": len(self._score_memo),
            "capacity": self._config.parse_cache_size,
        }

    def frozen_grammar(self) -> FrozenGrammar:
        """The compiled scoring snapshot, current as of this call.

        Built lazily and cached; the grammar's epoch counter (bumped by
        :meth:`update` / training merges) invalidates it, so the update
        phase never scores against stale tables.  A stale snapshot is
        not rebuilt but refreshed: the new one shares every length
        table the update left alone (:class:`FrozenGrammar`).  Scores
        from the snapshot are bit-identical to
        :meth:`FuzzyGrammar.derivation_probability`.  A new snapshot
        empties the score memo, whose values belong to the old one.
        """
        frozen = self._frozen
        if frozen is None or frozen.epoch != self._grammar.epoch:
            telemetry = obs.get()
            with telemetry.timer("meter.frozen.build.seconds"):
                frozen = FrozenGrammar(self._grammar, frozen)
            self._frozen = frozen
            self._score_memo.clear()
            if telemetry.enabled:
                telemetry.incr("meter.frozen.builds")
        return frozen

    def attack_engine(self) -> "AttackEngine":
        """The compiled attack engine, current as of this call.

        Same lifecycle as :meth:`frozen_grammar`: built lazily, cached,
        and rebuilt when the grammar's epoch moves (update phase).  The
        engine drives :meth:`iter_guesses`, beam-bounded enumeration,
        fast Monte-Carlo sampling and mask compilation — see
        :mod:`repro.attacks.engine`.
        """
        # Local import: repro.attacks sits above the core layer.
        from repro.attacks.engine import AttackEngine

        engine = self._attack_engine
        if engine is None or not engine.is_current():
            telemetry = obs.get()
            with telemetry.timer("attack.engine.build.seconds"):
                engine = AttackEngine(self)
            self._attack_engine = engine
            if telemetry.enabled:
                telemetry.incr("attack.engine.builds")
        return engine

    # --- measuring -------------------------------------------------------

    def parse(self, password: str) -> ParsedPassword:
        """The deterministic fuzzy parse used for measuring/updating."""
        return self._parser.parse(password)

    def probability(self, password: str) -> float:
        """``M(pw)``: probability of the password's fuzzy derivation.

        Unseen structures or terminals yield 0.0 — under trawling
        guessing, a password the model cannot derive is out of reach of
        the modelled attacker.
        """
        telemetry = obs.get()
        if telemetry.enabled:
            telemetry.incr("meter.probability")
        if not password:
            return 0.0
        parsed = self.parse(password)
        probability = self._grammar.derivation_probability(
            parsed.to_derivation()
        )
        if self._config.auto_update:
            self._grammar.observe(parsed.flat)
        return probability

    def probability_many(self, passwords: Iterable[str]) -> List[float]:
        """Bulk :meth:`probability`, returning one value per input.

        Scores run through :func:`score_many` — per-batch distinct
        dict, the meter's score memo for the current epoch, frozen
        scoring kernel (:meth:`frozen_grammar`).  Results are exactly
        the per-call values, in order.

        With ``auto_update`` on, every measurement mutates the grammar,
        so each value depends on all earlier ones — that mode falls
        back to the plain sequential loop.
        """
        if self._config.auto_update:
            return [self.probability(pw) for pw in passwords]
        return score_many(
            self._parser, self.frozen_grammar(), passwords,
            self._score_memo, self._config.parse_cache_size,
        )

    def explain(self, password: str) -> Explanation:
        """A structured account of how the password was derived."""
        parsed = self.parse(password)
        probability = self._grammar.derivation_probability(
            parsed.to_derivation()
        )
        segments: List[Tuple[str, str]] = []
        for segment in parsed.segments:
            notes = [segment.kind.value]
            if segment.capitalized:
                notes.append("capitalized")
            if segment.reversed_word:
                notes.append("reversed")
            if segment.all_caps:
                notes.append("all-caps")
            for offset in segment.toggled_offsets:
                rule = leet_rule_for_char(segment.base[offset])
                notes.append(f"leet {rule} at {offset}")
            segments.append((segment.base, ", ".join(notes)))
        return Explanation(
            password=password,
            probability=probability,
            structure=structure_label(parsed.structure),
            segments=tuple(segments),
        )

    # --- update phase ------------------------------------------------------

    def update(self, password: str, count: int = 1) -> None:
        """The update phase: fold an accepted password into the grammar.

        All probabilities associated with the password's structures,
        terminals and transformation rules shift towards the new
        observation (paper Sec. IV-C), keeping the meter adaptive.
        This is the unified lifecycle verb
        (:class:`repro.meters.registry.Updatable`).
        """
        if not password:
            raise ValueError("cannot accept an empty password")
        if not is_count(count):
            raise ValueError(
                f"accept count for {password!r} must be a positive "
                f"integer, got {count!r}"
            )
        with parse_tally() as tally:
            parse = self._parser.parse_flat(password, tally)
        self._grammar.observe(parse, count)

    # --- serialisation -----------------------------------------------------

    def base_words(self) -> List[str]:
        """The sorted base-dictionary word list, materialised once.

        The list is cached and shared across :meth:`to_dict` calls
        (saving a large meter used to rebuild it on every save); it is
        refreshed if the trie has gained words since.
        """
        if (
            self._base_words is None
            or len(self._base_words) != len(self._trie)
        ):
            self._base_words = list(self._trie.iter_words())
        return self._base_words

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable snapshot: base trie, grammar and config."""
        return {
            "config": asdict(self._config),
            "base_words": self.base_words(),
            "grammar": self._grammar.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FuzzyPSM":
        config = _load_config(data["config"])
        trie = PrefixTrie(
            data["base_words"], min_length=config.min_base_length
        )
        grammar = FuzzyGrammar.from_dict(data["grammar"])
        return cls(grammar, trie, config)

    def to_buffers(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """Flat-column snapshot for the binary model format.

        Returns ``(meta, sections)``: the JSON-safe config (same keys
        as :meth:`to_dict`'s ``config``) plus an ordered mapping of
        flat columns — the sorted base words as one blob with a
        character-length column, and the grammar's
        :meth:`FuzzyGrammar.to_arrays` columns.  Consumed by
        :func:`repro.persistence.save_meter` with ``fmt="binary"``.
        """
        words = self.base_words()
        base_lens = array("q", (len(word) for word in words))
        sections: Dict[str, Any] = {
            "base_blob": "".join(words),
            "base_lens": base_lens,
        }
        sections.update(self._grammar.to_arrays())
        return {"config": asdict(self._config)}, sections

    @classmethod
    def from_buffers(
        cls, meta: Dict[str, Any], sections: Dict[str, Any]
    ) -> "FuzzyPSM":
        """Rebuild a meter from :meth:`to_buffers` output.

        The fast load path: grammar tables are bulk-built from the
        flat columns (:meth:`FuzzyGrammar.from_arrays`), and the trie
        is rebuilt from the word blob.  A binary round trip yields a
        meter whose :meth:`to_dict` is byte-identical to the source.
        Inconsistent columns raise ``ValueError`` (see
        :meth:`FuzzyGrammar.from_arrays`).
        """
        config = _load_config(meta["config"])
        blob = sections["base_blob"]
        base_lens = sections["base_lens"]
        check_partition(base_lens, len(blob), "base_lens", "base_blob")
        words: List[str] = []
        offset = 0
        for length in base_lens:
            words.append(blob[offset:offset + length])
            offset += length
        trie = PrefixTrie(words, min_length=config.min_base_length)
        grammar = FuzzyGrammar.from_arrays(sections)
        return cls(grammar, trie, config)

    # --- probabilistic-meter extras -----------------------------------------

    def sample(self, rng: random.Random,
               max_attempts: int = 1000) -> Tuple[str, float]:
        """Draw ``(password, probability)`` consistent with ``probability``.

        The grammar can emit several derivations for the same surface
        string, but the meter always measures via the single canonical
        (deterministic longest-prefix) parse.  To sample from exactly
        the distribution that ``probability`` defines, draws whose
        canonical parse differs from the sampled derivation are
        rejected and redrawn.  Non-canonical draws are rare in trained
        grammars; if ``max_attempts`` are exhausted the last surface is
        returned with its canonical (measured) probability so the pair
        stays self-consistent.

        Draws run on the attack engine's
        :class:`~repro.attacks.engine.FrozenSampler` (cumulative
        tables + bisect), and accepted probabilities come from the
        frozen kernel, which is bit-identical to the dict path.
        """
        return self.attack_engine().sample(rng, max_attempts=max_attempts)

    def iter_guesses(self, limit: Optional[int] = None
                     ) -> Iterator[Tuple[str, float]]:
        """Guesses in decreasing probability order (deduplicated).

        Served by the compiled attack engine
        (:meth:`attack_engine`), which enumerates the grammar's product
        lattice over the frozen flat tables with one global heap —
        probabilities are bit-identical to the scoring kernel.  The
        stream contains only guesses with probability > 0:
        zero-probability variants are unreachable under the modelled
        attacker.  Its test oracle is the pre-engine per-slot
        enumerator, kept in ``tests/enumeration_oracle.py``.
        """
        return iter(self.attack_engine().guesses(limit=limit))
