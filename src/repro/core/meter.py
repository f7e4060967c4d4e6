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
from repro.obs.core import now as _now
from repro.core.frozen import FrozenGrammar
from repro.core.grammar import (
    Derivation,
    DerivedSegment,
    FuzzyGrammar,
    leet_rule_for_char,
    structure_label,
)
from repro.core.parser import (
    DEFAULT_PARSE_CACHE_SIZE,
    FuzzyParser,
    ParsedPassword,
    parse_tally,
)
from repro.core.shm import (
    MaterializedScoringState,
    SharedScoringSegment,
    _worker_attach_state,
    mp_context,
)
from repro.core.training import (
    PasswordEntry,
    build_base_trie,
    train_grammar,
    train_grammar_streaming,
)
from repro.core.trie import PrefixTrie
from repro.meters.base import ProbabilisticMeter, probability_to_entropy
from repro.meters.registry import Capability, TrainContext, register_meter
from repro.metrics.enumeration import (
    LazyDescendingList,
    deduplicate_guesses,
    descending_products,
    merge_weighted_descending,
)

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
        parse_cache_size: capacity of the parser's LRU parse cache
            (``--parse-cache-size`` on the CLI).  Bulk scoring of
            Zipf-shaped streams hits this cache for the popular head;
            raise it for wide sweeps, shrink it for memory-constrained
            deployments.  A pure execution-strategy knob.
    """

    min_base_length: int = 3
    allow_capitalization: bool = True
    allow_leet: bool = True
    allow_reverse: bool = False
    allow_allcaps: bool = False
    auto_update: bool = False
    parse_cache_size: int = DEFAULT_PARSE_CACHE_SIZE


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
        parse_cache_size=config.parse_cache_size,
    )


def score_many(
    parser: FuzzyParser, frozen: FrozenGrammar, passwords: Iterable[str]
) -> List[float]:
    """The batch scoring loop: one probability per input, in order.

    Real password streams are heavily repetitive (Zipf-shaped), so
    parses go through the parser's LRU cache, and the final probability
    is memoised per distinct password within the batch.  Each flat
    parse (:data:`~repro.core.grammar.FlatParse`) goes straight from
    the parser, or its cache, into the frozen scoring kernel: no object
    is built per segment.  Values are bit-identical to per-call
    :meth:`FuzzyPSM.probability`.  This is the only copy of the loop:
    :meth:`FuzzyPSM.probability_many` and the scoring-pool worker both
    call it.
    """
    telemetry = obs.get()
    parse = parser.parse_flat_cached
    score = frozen.derivation_probability
    batch: Dict[str, float] = {}
    out: List[float] = []
    # Probes stay at batch granularity: the parse probes are counted as
    # plain ints into one tally (only when telemetry is enabled) and
    # folded in once, after the loop.
    with parse_tally() as tally, telemetry.timer("meter.batch.seconds"):
        for password in passwords:
            probability = batch.get(password)
            if probability is None:
                if password:
                    probability = score(parse(password, tally))
                else:
                    probability = 0.0
                batch[password] = probability
            out.append(probability)
    if telemetry.enabled:
        telemetry.incr("meter.batch.calls")
        telemetry.incr("meter.batch.scores", len(out))
        telemetry.incr("meter.batch.distinct", len(batch))
        telemetry.observe("meter.batch.size", float(len(out)))
    return out


#: Distinct-password cutoff below which ``jobs > 1`` still scores
#: serially.  Workers attach to the meter's shared-memory snapshot
#: segment by *name* (DESIGN.md §16), so the old per-pool broadcast tax
#: — pickling compiled matchers and the frozen grammar into every
#: worker — is gone and the cutoff only has to cover process start-up
#: itself.  Mirrors the training fallback
#: (:data:`repro.core.training.PARALLEL_MIN_ENTRIES`); pass
#: ``parallel_threshold`` to :meth:`FuzzyPSM.probability_many` to
#: override (tests and tuning).
PARALLEL_MIN_DISTINCT = 2_000

#: Per-worker scoring state, installed once by ``_worker_init_shared``
#: so every chunk mapped to that worker reuses the same compiled
#: matchers and frozen grammar.
_SCORE_PARSER: Optional[FuzzyParser] = None
_SCORE_FROZEN: Optional[FrozenGrammar] = None


def _worker_init_shared(segment_name: str) -> None:
    """Process-pool initialiser: attach the shared snapshot **once**.

    Workers receive only a segment *name* — nothing model-sized is
    pickled, so the initialiser costs the same few milliseconds under
    ``fork`` and ``spawn`` alike (the broadcast half of DESIGN.md §11,
    re-based onto the snapshot plane of §16).  The per-process attach
    cache in :mod:`repro.core.shm` makes re-initialisation with an
    unchanged name (worker respawns) effectively free.
    """
    global _SCORE_PARSER, _SCORE_FROZEN
    state = _worker_attach_state(segment_name)
    _SCORE_FROZEN = state.require_frozen()
    _SCORE_PARSER = state.build_parser()


def _score_chunk(chunk: List[str]) -> Tuple[List[float], float]:
    """Score one chunk of *distinct* passwords in a worker.

    Returns the scores plus the worker-side seconds: the parent's
    telemetry backend cannot see into pool processes, so each chunk
    ships its own timing home for the ``meter.parallel.chunk.seconds``
    histogram (same pattern as training's ``train.chunk.seconds``).
    """
    parser = _SCORE_PARSER
    frozen = _SCORE_FROZEN
    assert parser is not None and frozen is not None, \
        "_worker_init_shared did not run"
    start = _now()
    values = score_many(parser, frozen, chunk)
    return values, _now() - start


def _build_fuzzypsm(cls: type, context: TrainContext) -> "FuzzyPSM":
    """Registry builder: base dictionary + training + family options."""
    options = context.options
    return cls.train(
        base_dictionary=context.base_dictionary,
        training=list(context.training),
        config=options.get("fuzzy_config"),
        jobs=options.get("jobs"),
    )


@register_meter(
    "fuzzypsm",
    capabilities=(
        Capability.TRAINABLE,
        Capability.STREAM_TRAINABLE,
        Capability.UPDATABLE,
        Capability.BATCH_SCORABLE,
        Capability.PARALLEL_SCORABLE,
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
        # Published shared-memory snapshot segment (DESIGN.md §16),
        # built lazily by :meth:`shared_segment`; a stale epoch is
        # unlinked when the replacement is published.
        self._shared_segment: Optional[SharedScoringSegment] = None

    # --- construction -------------------------------------------------

    @classmethod
    def train(cls, base_dictionary: Iterable[str],
              training: Iterable[PasswordEntry],
              config: Optional[FuzzyPSMConfig] = None,
              jobs: Optional[int] = None) -> "FuzzyPSM":
        """Run the training phase and return a ready meter.

        Args:
            base_dictionary: passwords from a *less sensitive* service
                (the paper uses Rockyou / Tianya).
            training: passwords from a *sensitive* service (optionally
                ``(password, count)`` pairs).
            config: meter tunables; see :class:`FuzzyPSMConfig`.
            jobs: worker processes for the training pass; ``N > 1``
                parses chunks in parallel and merges the count tables
                exactly (see :func:`~repro.core.training.train_grammar`).
        """
        config = config or FuzzyPSMConfig()
        trie = build_base_trie(
            base_dictionary, min_length=config.min_base_length
        )
        parser = _build_parser(trie, config)
        grammar = train_grammar(training, trie, parser=parser, jobs=jobs)
        return cls(grammar, trie, config)

    @classmethod
    def train_streaming(
        cls,
        base_dictionary: Iterable[str],
        chunks: Iterable[Iterable[PasswordEntry]],
        config: Optional[FuzzyPSMConfig] = None,
        jobs: Optional[int] = None,
    ) -> "FuzzyPSM":
        """Train from an out-of-core stream of entry chunks.

        The corpus-scale twin of :meth:`train`: ``chunks`` is an
        iterator of bounded ``(password, count)`` batches — typically
        :func:`repro.datasets.loaders.stream_corpus_chunks` over a
        RockYou-scale file — consumed exactly once, so peak memory is
        governed by the chunk size and (with ``jobs > 1``) the
        trainer's bounded in-flight window, never the corpus.  The
        resulting grammar is byte-identical to an in-memory
        :meth:`train` over the concatenated entries
        (:func:`~repro.core.training.train_grammar_streaming`).
        """
        config = config or FuzzyPSMConfig()
        trie = build_base_trie(
            base_dictionary, min_length=config.min_base_length
        )
        parser = _build_parser(trie, config)
        grammar = train_grammar_streaming(
            chunks, trie, parser=parser, jobs=jobs
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
        """The meter's deterministic parser (for cache introspection)."""
        return self._parser

    def frozen_grammar(self) -> FrozenGrammar:
        """The compiled scoring snapshot, current as of this call.

        Built lazily and cached; the grammar's epoch counter (bumped by
        :meth:`update` / training merges) invalidates it, so the update
        phase never scores against stale tables.  A stale snapshot is
        not rebuilt but refreshed: the new one shares every length
        table the update left alone (:class:`FrozenGrammar`).  Scores
        from the snapshot are bit-identical to
        :meth:`FuzzyGrammar.derivation_probability`.
        """
        frozen = self._frozen
        if frozen is None or frozen.epoch != self._grammar.epoch:
            telemetry = obs.get()
            with telemetry.timer("meter.frozen.build.seconds"):
                frozen = FrozenGrammar(self._grammar, frozen)
            self._frozen = frozen
            if telemetry.enabled:
                telemetry.incr("meter.frozen.builds")
        return frozen

    def scoring_state(self) -> MaterializedScoringState:
        """The scoring snapshot at the current epoch.

        The compiled matchers, the frozen grammar and the parser
        configuration — everything a scorer in another process needs,
        and nothing mutable.  This is what :meth:`shared_segment`
        publishes.
        """
        return MaterializedScoringState.from_parser(
            self._parser, self.frozen_grammar()
        )

    def shared_segment(self) -> SharedScoringSegment:
        """The published snapshot segment for the current epoch.

        Packs :meth:`scoring_state` into one shared-memory segment
        (created lazily, cached by epoch) that the scoring pool's
        workers attach to by name in milliseconds.
        Publishing a new epoch unlinks the retired segment — attached
        processes keep their mappings until they drop them, late
        attachers fail fast.
        """
        segment = self._shared_segment
        if segment is not None \
                and segment.epoch == self.frozen_grammar().epoch:
            return segment
        telemetry = obs.get()
        with telemetry.timer("shm.segment.publish.seconds"):
            fresh = SharedScoringSegment.create(self.scoring_state())
        if segment is not None:
            segment.unlink()
        self._shared_segment = fresh
        return fresh

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

    def probability_many(
        self,
        passwords: Iterable[str],
        jobs: Optional[int] = None,
        parallel_threshold: Optional[int] = None,
    ) -> List[float]:
        """Bulk :meth:`probability`, returning one value per input.

        Scores run through :func:`score_many` — parse cache,
        per-batch distinct memo, frozen scoring kernel
        (:meth:`frozen_grammar`).  Results are exactly the per-call
        values, in order.

        Args:
            passwords: the stream to score.
            jobs: worker processes; ``None``/``0``/``1`` score in this
                process.  ``N > 1`` deduplicates the stream and fans
                chunks of distinct passwords to a pool whose workers
                attach the meter's shared snapshot segment once at
                start-up.  Batches with fewer distinct passwords than
                the threshold fall back to the serial path
                automatically (``meter.parallel.fallback.serial``).
            parallel_threshold: distinct-count cutoff for that fallback
                (default :data:`PARALLEL_MIN_DISTINCT`).

        With ``auto_update`` on, every measurement mutates the grammar,
        so each value depends on all earlier ones — that mode falls
        back to the plain sequential loop.
        """
        if self._config.auto_update:
            return [self.probability(pw) for pw in passwords]
        telemetry = obs.get()
        if jobs is not None and jobs > 1:
            stream = list(passwords)
            distinct = list(dict.fromkeys(stream))
            threshold = (
                PARALLEL_MIN_DISTINCT if parallel_threshold is None
                else parallel_threshold
            )
            if len(distinct) >= threshold:
                return self._probability_many_parallel(
                    stream, distinct, jobs
                )
            if telemetry.enabled:
                telemetry.incr("meter.parallel.fallback.serial")
            passwords = stream
        return score_many(self._parser, self.frozen_grammar(), passwords)

    def entropy_many(
        self,
        passwords: Iterable[str],
        jobs: Optional[int] = None,
        parallel_threshold: Optional[int] = None,
    ) -> List[float]:
        """Batch :meth:`entropy`, sharing the bulk/parallel machinery."""
        return [
            probability_to_entropy(probability)
            for probability in self.probability_many(
                passwords, jobs=jobs, parallel_threshold=parallel_threshold
            )
        ]

    def _probability_many_parallel(
        self, stream: List[str], distinct: List[str], jobs: int
    ) -> List[float]:
        """Fan distinct passwords to a scoring pool; reassemble in order.

        The expensive work — parse + frozen-kernel evaluation — is done
        once per *distinct* password in the pool; the (typically much
        longer) stream is then reassembled by dict lookup in the
        parent.  Workers never see the pointer trie or the count-table
        grammar — nor a pickled copy of anything model-sized: the pool
        initializer hands each worker the *name* of the meter's shared
        snapshot segment (:meth:`shared_segment`) and the worker
        attaches zero-copy, under whatever start method
        :func:`repro.core.shm.mp_context` selects.
        """
        telemetry = obs.get()
        segment = self.shared_segment()
        # A few chunks per worker smooths over uneven parse costs
        # without inflating per-chunk pickling overhead (same shape as
        # parallel training).
        chunk_count = min(jobs * 4, len(distinct))
        step = -(-len(distinct) // chunk_count)
        chunks = [
            distinct[i:i + step] for i in range(0, len(distinct), step)
        ]
        scores: Dict[str, float] = {}
        with telemetry.timer("meter.parallel.seconds"):
            with mp_context().Pool(
                processes=jobs,
                initializer=_worker_init_shared,
                initargs=(segment.name,),
            ) as pool:
                for chunk, (values, chunk_seconds) in zip(
                    chunks, pool.imap(_score_chunk, chunks)
                ):
                    if telemetry.enabled:
                        telemetry.observe(
                            "meter.parallel.chunk.seconds", chunk_seconds
                        )
                    for password, value in zip(chunk, values):
                        scores[password] = value
        if telemetry.enabled:
            telemetry.incr("meter.parallel.calls")
            telemetry.incr("meter.parallel.scores", len(stream))
            telemetry.incr("meter.parallel.distinct", len(distinct))
            telemetry.observe("meter.parallel.size", float(len(stream)))
        return [scores[password] for password in stream]

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
        if count <= 0:
            raise ValueError(
                f"accept count for {password!r} must be positive, "
                f"got {count!r}"
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
        """
        config = _load_config(meta["config"])
        blob = sections["base_blob"]
        words: List[str] = []
        offset = 0
        for length in sections["base_lens"]:
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
        :class:`~repro.attacks.engine.FrozenSampler` — cumulative
        tables + bisect instead of the training tables' linear scans —
        and accepted probabilities come from the frozen kernel, which
        is bit-identical to the dict path.
        """
        return self.attack_engine().sample(rng, max_attempts=max_attempts)

    def iter_guesses(self, limit: Optional[int] = None
                     ) -> Iterator[Tuple[str, float]]:
        """Guesses in decreasing probability order (deduplicated).

        Served by the compiled attack engine
        (:meth:`attack_engine`), which enumerates the grammar's product
        lattice over the frozen flat tables with one global heap —
        probabilities are bit-identical to the scoring kernel.  Unlike
        the legacy path (kept as :meth:`_iter_guesses_reference` for
        differential tests and benchmarks), the stream contains only
        guesses with probability > 0: zero-probability variants are
        unreachable under the modelled attacker.
        """
        return iter(self.attack_engine().guesses(limit=limit))

    def _iter_guesses_reference(self, limit: Optional[int] = None
                                ) -> Iterator[Tuple[str, float]]:
        """The pre-engine per-guess enumeration (reference semantics).

        Merges, over all learned base structures, the product of
        per-slot variant streams (terminal x capitalization x leet),
        walking the training-side count tables.  Kept as the
        differential oracle for the engine (same guesses, same order up
        to ties, probabilities equal within float re-association) and
        as the baseline of ``benchmarks/test_timing_attack_engine.py``.
        Appends zero-probability variants the engine omits.
        """
        slot_cache: Dict[int, LazyDescendingList[str]] = {}

        def slot_list(length: int) -> LazyDescendingList[str]:
            if length not in slot_cache:
                slot_cache[length] = LazyDescendingList(
                    self._slot_variants(length)
                )
            return slot_cache[length]

        def structure_stream(structure: Tuple[int, ...]
                             ) -> Iterator[Tuple[str, float]]:
            factors = [slot_list(length) for length in structure]
            for surfaces, probability in descending_products(factors):
                yield "".join(surfaces), probability

        streams: List[Tuple[float, Iterator[Tuple[str, float]]]] = []
        total = self._grammar.structures.total
        if total == 0:
            return
        for structure, count in self._grammar.structures.most_common():
            streams.append((count / total, structure_stream(structure)))
        merged = merge_weighted_descending(streams)
        deduplicated = deduplicate_guesses(merged)
        if limit is None:
            yield from deduplicated
        else:
            for index, item in enumerate(deduplicated):
                if index >= limit:
                    return
                yield item

    def _slot_variants(self, length: int) -> Iterator[Tuple[str, float]]:
        """Descending (surface, probability) stream for one B_n slot."""
        table = self._grammar.terminals.get(length)
        if table is None or table.total == 0:
            return iter(())
        total = table.total

        def variants_of(base: str) -> Iterator[Tuple[str, float]]:
            # Heterogeneous slots (case/reverse choices vs leet-toggle
            # offsets), so the factor element type is Any by design.
            factors: List[List[Tuple[Any, float]]] = [
                self._case_reverse_factor(base)
            ]
            for offset, ch in enumerate(base):
                rule = leet_rule_for_char(ch)
                if rule is not None:
                    factors.append(self._leet_factor(rule, offset))
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
        self, base: str
    ) -> List[Tuple[Tuple[bool, bool, bool], float]]:
        """(capitalized, reversed, all_caps) choices for a slot.

        Enumeration must only emit variants the measuring parse can
        report, or measured and enumerated probabilities would drift:

        * ``capitalized=True`` needs a lower-case first character;
        * ``reversed_word=True`` needs the reverse rule enabled and
          observed, a non-palindromic base that is an actual trie word
          (fallback runs are not reverse-matchable), and — matching
          the parser's semantics — no case rule on the same segment;
        * ``all_caps=True`` needs the rule enabled and observed, a
          trie-word base, and an upper-casing that changes a character
          beyond position 0 (otherwise the surface collides with the
          first-letter or plain reading, which the parser prefers).
        """
        p_cap_yes = self._grammar.capitalization_probability(True)
        p_cap_no = self._grammar.capitalization_probability(False)
        p_rev_yes = self._grammar.reverse_probability(True)
        p_rev_no = self._grammar.reverse_probability(False)
        p_ac_yes = self._grammar.allcaps_probability(True)
        p_ac_no = self._grammar.allcaps_probability(False)
        options = [
            ((False, False, False), p_cap_no * p_rev_no * p_ac_no)
        ]
        if base[:1].islower():
            options.append(
                ((True, False, False), p_cap_yes * p_rev_no * p_ac_no)
            )
        if (
            self._config.allow_reverse
            and self._grammar.reverse.count(True) > 0
            and base != base[::-1]
            and base in self._trie
        ):
            options.append(
                ((False, True, False), p_cap_no * p_rev_yes * p_ac_no)
            )
        if (
            self._config.allow_allcaps
            and self._grammar.allcaps.count(True) > 0
            and base in self._trie
            and base[1:] != base[1:].upper()
        ):
            options.append(
                ((False, False, True), p_cap_no * p_rev_no * p_ac_yes)
            )
        options.sort(key=lambda item: (-item[1], item[0]))
        return options

    def _leet_factor(
        self, rule: str, offset: int
    ) -> List[Tuple[Optional[int], float]]:
        p_yes = self._grammar.leet_probability(rule, True)
        p_no = self._grammar.leet_probability(rule, False)
        options = [(None, p_no), (offset, p_yes)]
        options.sort(key=lambda item: (-item[1], item[0] is not None))
        return options
