"""Command-line interface: ``python -m repro <command>``.

Commands cover the full paper workflow:

* ``survey``      — print the user-survey headline numbers (Figs. 2-8);
* ``generate``    — synthesise a calibrated corpus to a file;
* ``stats``       — Tables VIII-X statistics for a corpus file;
* ``train``       — train any registered trainable meter and save it;
* ``measure``     — measure passwords with a saved model;
* ``meters``      — list registered meters and their capabilities;
* ``guess``       — emit a model's top guesses (cracking mode);
* ``scenarios``   — list the Table-XI experiment matrix;
* ``experiment``  — run one scenario and print its Fig.-13 curves;
* ``coach``       — suggest stronger variants of a weak password;
* ``attack``      — the unified attack engine: ``enumerate`` (guess
  streams at scale), ``masks`` (compiled hashcat-style masks/rules),
  ``simulate`` (Table I's online/offline attackers), ``crossover``
  (online vs mask-extrapolated offline meter comparison);
* ``profile``     — partial-guessing profile of a corpus file, or
  (with ``--base/--train/--stream``) a telemetry profile of the full
  train-and-score pipeline;
* ``serve``       — serve a saved model over HTTP (``/check``,
  ``/suggest``, ``/policy``, ``/accept``, ``/healthz``,
  ``/metrics``); see DESIGN.md §14.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from typing import Any, List, Optional, Sequence, Tuple

from repro.datasets.loaders import (
    load_corpus,
    save_corpus,
    stream_corpus_chunks,
)
from repro.datasets.profiles import DATASET_ORDER
from repro.datasets.stats import (
    composition_table,
    length_table,
    summary_row,
    top_k_table,
)
from repro.datasets.synthetic import SyntheticEcosystem
from repro.experiments.reporting import (
    format_curves,
    format_percent,
    format_ranking,
    format_table,
)
from repro.experiments.runner import ExperimentConfig, run_scenario
from repro.experiments.scenarios import ALL_SCENARIOS, scenario
from repro.meters import registry
from repro.meters.base import probability_to_entropy
from repro.meters.markov import Smoothing
from repro.meters.registry import Capability, TrainContext
from repro.persistence import load_meter, save_meter
from repro.serve import ReproServer, ServeConfig, SnapshotRegistry
from repro.survey.analysis import survey_report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="fuzzyPSM (DSN 2016) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("survey", help="print survey headline numbers")

    generate = commands.add_parser(
        "generate", help="synthesise a calibrated corpus"
    )
    generate.add_argument("dataset", choices=list(DATASET_ORDER))
    generate.add_argument("--total", type=int, default=20_000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", "-o", required=True)
    generate.add_argument(
        "--format", choices=("plain", "counted"), default="counted"
    )

    stats = commands.add_parser(
        "stats", help="corpus statistics (Tables VIII-X)"
    )
    stats.add_argument("corpus", help="corpus file (plain or counted)")
    stats.add_argument("--top", type=int, default=10)

    train = commands.add_parser("train", help="train and save a meter")
    train.add_argument("--training", required=True,
                       help="training corpus file")
    train.add_argument("--base",
                       help="base dictionary corpus file (fuzzyPSM only)")
    # Any registered trainable + persistable meter is a --kind choice:
    # registering a new meter makes it trainable here with no CLI edit.
    train.add_argument(
        "--kind",
        choices=registry.kinds_with(
            Capability.TRAINABLE, Capability.PERSISTABLE
        ),
        default="fuzzypsm",
    )
    train.add_argument("--order", type=int, default=3,
                       help="Markov order")
    train.add_argument(
        "--smoothing", default="backoff",
        choices=[s.value for s in Smoothing],
    )
    train.add_argument(
        "--allow-reverse", action="store_true",
        help="enable the reverse rule (paper future work; fuzzyPSM)",
    )
    train.add_argument(
        "--allow-allcaps", action="store_true",
        help="enable whole-word capitalization (fuzzyPSM)",
    )
    train.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="parse the training corpus across N worker processes; "
             "count tables are merged exactly (fuzzyPSM)",
    )
    train.add_argument(
        "--parse-cache-size", type=int, default=None, metavar="N",
        help="capacity of the LRU parse cache used for bulk scoring "
             "(fuzzyPSM; default 65536)",
    )
    train.add_argument(
        "--stream-chunk", type=int, default=None, metavar="N",
        help="stream the training corpus off disk in chunks of N "
             "entries instead of loading it into memory (stream-"
             "trainable kinds; combine with --jobs for the parallel "
             "delta pool)",
    )
    train.add_argument(
        "--model-format", choices=["json", "binary"], default="json",
        help="on-disk model format: json (portable envelope) or "
             "binary (array-backed, mmap-fast loads; binary-"
             "persistable kinds)",
    )
    train.add_argument("--output", "-o", required=True)

    measure = commands.add_parser(
        "measure", help="measure passwords with a saved model"
    )
    measure.add_argument("--model", required=True)
    measure.add_argument(
        "--score-jobs", type=int, default=None, metavar="N",
        help="score across N worker processes (parallel-scorable "
             "meters; results are identical to serial scoring)",
    )
    measure.add_argument("passwords", nargs="*",
                         help="passwords (stdin lines when omitted)")

    guess = commands.add_parser(
        "guess", help="emit a model's top guesses"
    )
    guess.add_argument("--model", required=True)
    guess.add_argument("--count", "-n", type=int, default=100)

    meters = commands.add_parser(
        "meters", help="list registered meters and their capabilities"
    )
    meters.add_argument(
        "--format", dest="output_format",
        choices=("text", "json"), default="text",
    )

    commands.add_parser("scenarios", help="list the Table-XI matrix")

    experiment = commands.add_parser(
        "experiment", help="run one Table-XI scenario"
    )
    experiment.add_argument(
        "scenario", help="scenario name, e.g. ideal-csdn"
    )
    experiment.add_argument("--corpus-size", type=int, default=20_000)
    experiment.add_argument("--base-corpus-size", type=int,
                            default=120_000)
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--min-frequency", type=int, default=4)
    experiment.add_argument(
        "--score-jobs", type=int, default=None, metavar="N",
        help="bulk-score across N worker processes for meters with "
             "the parallel-scorable capability",
    )
    experiment.add_argument(
        "--seeds",
        help="comma-separated seeds for a robustness sweep "
             "(overrides --seed; prints mean rank +/- std per meter)",
    )

    coach = commands.add_parser(
        "coach", help="suggest stronger variants of weak passwords"
    )
    coach.add_argument("--model", required=True,
                       help="trained meter (from `repro train`)")
    coach.add_argument("--target-bits", type=float, default=20.0)
    coach.add_argument("--max-suggestions", type=int, default=3)
    coach.add_argument("passwords", nargs="+")

    attack = commands.add_parser(
        "attack",
        help="the unified attack engine: enumerate guesses, compile "
             "masks, simulate attackers, compare meters at scale",
    )
    attack_commands = attack.add_subparsers(
        dest="attack_command", required=True
    )

    attack_enumerate = attack_commands.add_parser(
        "enumerate",
        help="emit a model's descending guess stream (engine-backed)",
    )
    attack_enumerate.add_argument(
        "--model", required=True, help="trained meter file"
    )
    attack_enumerate.add_argument("--count", "-n", type=int,
                                  default=1_000)
    attack_enumerate.add_argument(
        "--beam-width", type=int, default=None, metavar="N",
        help="bound the expansion frontier to the N most probable "
             "nodes (lossy; dropped mass is tracked)",
    )
    attack_enumerate.add_argument(
        "--beam-floor", type=float, default=0.0, metavar="P",
        help="prune candidates below probability P (exact above the "
             "floor)",
    )
    attack_enumerate.add_argument(
        "--stats", action="store_true",
        help="print enumeration statistics to stderr",
    )

    attack_masks = attack_commands.add_parser(
        "masks",
        help="compile hashcat-style masks and rules from a model",
    )
    attack_masks.add_argument(
        "--model", required=True, help="trained meter file"
    )
    attack_masks.add_argument(
        "--source-guesses", type=int, default=20_000, metavar="N",
        help="guesses enumerated to feed mask aggregation",
    )
    attack_masks.add_argument(
        "--policy", choices=("efficiency", "mass", "keyspace"),
        default="efficiency", help="mask ranking policy",
    )
    attack_masks.add_argument(
        "--max-masks", type=int, default=None, metavar="N",
        help="keep only the N best masks",
    )
    attack_masks.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="masks printed to stdout",
    )
    attack_masks.add_argument(
        "--output", "-o",
        help="save the compiled mask set (JSON envelope)",
    )
    attack_masks.add_argument(
        "--export", metavar="DIR",
        help="also write hashcat-consumable .hcmask/.rule files "
        "into DIR",
    )

    attack_simulate = attack_commands.add_parser(
        "simulate", help="simulate Table I's trawling attackers"
    )
    attack_simulate.add_argument(
        "--model", required=True,
        help="trained meter used as the guess stream",
    )
    attack_simulate.add_argument(
        "--victims", required=True,
        help="corpus file of victim accounts",
    )
    attack_simulate.add_argument(
        "--lockout", type=int, default=100,
        help="online attempts allowed per account",
    )
    attack_simulate.add_argument(
        "--hash", dest="hash_name", default="sha256",
        choices=("plaintext", "md5", "sha256", "bcrypt", "scrypt"),
    )
    attack_simulate.add_argument("--hours", type=float, default=24.0)
    attack_simulate.add_argument(
        "--max-guesses", type=int, default=200_000,
        help="offline simulation horizon cap",
    )

    attack_crossover = attack_commands.add_parser(
        "crossover",
        help="online (materialized) vs offline (mask-extrapolated) "
             "crossover between two meters",
    )
    attack_crossover.add_argument(
        "--model", required=True, help="primary trained meter file"
    )
    attack_crossover.add_argument(
        "--baseline", required=True,
        help="baseline trained meter file to compare against",
    )
    attack_crossover.add_argument(
        "--victims", required=True,
        help="corpus file of victim accounts",
    )
    attack_crossover.add_argument(
        "--online-budget", type=int, default=10**4,
        help="materialized horizon (paper Table I: < 10^4)",
    )
    attack_crossover.add_argument(
        "--offline-budget", type=int, default=10**10,
        help="mask-extrapolated horizon (> 10^9)",
    )
    attack_crossover.add_argument(
        "--enumerate-limit", type=int, default=None, metavar="N",
        help="guesses materialized per meter (default: online budget)",
    )
    attack_crossover.add_argument(
        "--policy", choices=("efficiency", "mass", "keyspace"),
        default="efficiency",
        help="mask ranking policy for the offline extrapolation",
    )

    profile = commands.add_parser(
        "profile",
        help="partial-guessing profile of a corpus, or (--base/--train/"
             "--stream) pipeline telemetry",
    )
    profile.add_argument("corpus", nargs="?",
                         help="corpus file (plain or counted)")
    profile.add_argument("--online-budget", type=int, default=1_000)
    profile.add_argument(
        "--base", help="base dictionary corpus (telemetry mode)"
    )
    profile.add_argument(
        "--train", dest="train_corpus",
        help="training corpus (telemetry mode)",
    )
    profile.add_argument(
        "--stream",
        help="corpus scored as the measuring workload (telemetry mode)",
    )
    profile.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="score the stream N times (exercises the parse cache)",
    )
    profile.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the training stage",
    )
    profile.add_argument(
        "--score-jobs", type=int, default=None, metavar="N",
        help="worker processes for the scoring stage",
    )
    profile.add_argument(
        "--parse-cache-size", type=int, default=None, metavar="N",
        help="capacity of the LRU parse cache (telemetry mode)",
    )
    profile.add_argument(
        "--format", dest="output_format",
        choices=("json", "text"), default="json",
    )
    profile.add_argument(
        "--output", "-o",
        help="also write the JSON report to this file",
    )

    serve = commands.add_parser(
        "serve",
        help="serve a saved model over HTTP (check/suggest/policy)",
    )
    serve.add_argument(
        "--model", required=True, action="append", dest="models",
        metavar="[NAME=]PATH",
        help="saved model file (repro train output); repeatable — "
        "NAME=PATH serves several models routed by the model= request "
        "parameter (the first one is the default route)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8042,
                       help="bind port (0 = ephemeral)")
    serve.add_argument(
        "--batch-window", type=float, default=0.0, metavar="SECS",
        help="micro-batch coalescing window for /check "
        "(0 = self-clocking: batch whatever arrives mid-dispatch)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=256, metavar="N",
        help="most /check requests folded into one scoring call",
    )
    serve.add_argument(
        "--max-body", type=int, default=64 * 1024, metavar="BYTES",
        help="request body size cap (413 beyond it)",
    )

    lint = commands.add_parser(
        "lint", help="run the domain-invariant static analyser"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--format", dest="output_format",
        choices=("text", "json", "sarif", "markdown"), default="text",
        help="violation reporter; 'sarif' emits SARIF 2.1.0 for CI "
        "code scanning, 'markdown' is only valid with --list-rules",
    )
    lint.add_argument(
        "--select", help="comma-separated rule ids, e.g. FPM001,FPM006"
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    lint.add_argument(
        "--fix", action="store_true",
        help="apply the mechanical autofixes (FPM007 mutable "
        "defaults, FPM008 unambiguous -> None) before reporting",
    )
    lint.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="lint files across N processes (0 = CPU count)",
    )
    lint.add_argument(
        "--cache", dest="cache_path", default=None, metavar="PATH",
        help="incremental cache file (warm runs skip unchanged "
        "files); see also --no-cache",
    )
    lint.add_argument(
        "--no-cache", action="store_true",
        help="force a cold run even when --cache is given",
    )

    return parser


# --- command handlers -------------------------------------------------------


def _cmd_survey(_args: argparse.Namespace) -> int:
    for line in survey_report():
        print(line)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    ecosystem = SyntheticEcosystem(seed=args.seed)
    corpus = ecosystem.generate(args.dataset, total=args.total,
                                seed=args.seed)
    save_corpus(corpus, args.output, fmt=args.format)
    print(
        f"wrote {corpus.total} entries ({corpus.unique} unique) "
        f"to {args.output}"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    row = summary_row(corpus)
    print(f"dataset: {row['dataset']}  unique: {row['unique']}  "
          f"total: {row['total']}")
    table, share = top_k_table(corpus, k=args.top)
    print()
    print(format_table(
        ["rank", "password", "count"],
        [[rank, pw, count]
         for rank, (pw, count) in enumerate(table, start=1)],
        title=f"Top-{args.top} passwords "
              f"(covering {format_percent(share)})",
    ))
    print()
    print(format_table(
        ["class", "fraction"],
        [[name, format_percent(value)]
         for name, value in composition_table(corpus).items()],
        title="Character composition (Table IX classes)",
    ))
    print()
    print(format_table(
        ["length", "fraction"],
        [[bucket, format_percent(value)]
         for bucket, value in length_table(corpus).items()],
        title="Length distribution (Table X buckets)",
    ))
    return 0


def _fuzzy_config(args: argparse.Namespace):
    """The :class:`FuzzyPSMConfig` assembled from CLI tunables."""
    from repro.core.meter import FuzzyPSMConfig
    fuzzy_options = {
        "allow_reverse": args.allow_reverse,
        "allow_allcaps": args.allow_allcaps,
    }
    if args.parse_cache_size is not None:
        fuzzy_options["parse_cache_size"] = args.parse_cache_size
    return FuzzyPSMConfig(**fuzzy_options)


def _train_context(args: argparse.Namespace,
                   training_items: Sequence,
                   base_dictionary: Sequence[str]) -> TrainContext:
    """The registry context carrying every CLI training tunable.

    Each registered builder picks the options relevant to its family
    and ignores the rest, so one context trains any ``--kind``.
    """
    return TrainContext(
        training=tuple(training_items),
        base_dictionary=tuple(base_dictionary),
        options={
            "markov_order": args.order,
            "markov_smoothing": Smoothing(args.smoothing),
            "jobs": args.jobs,
            "fuzzy_config": _fuzzy_config(args),
        },
    )


def _cmd_train(args: argparse.Namespace) -> int:
    spec = registry.get_spec(args.kind)
    if spec.requires_base_dictionary and not args.base:
        print(f"error: --base is required for {spec.display_name}",
              file=sys.stderr)
        return 2
    if (
        args.model_format == "binary"
        and not spec.has(Capability.BINARY_PERSISTABLE)
    ):
        kinds = ", ".join(
            registry.kinds_with(Capability.BINARY_PERSISTABLE)
        )
        print(f"error: --model-format binary is not supported by "
              f"{spec.display_name}; binary-persistable kinds: {kinds}",
              file=sys.stderr)
        return 2
    if args.stream_chunk is not None:
        if not spec.has(Capability.STREAM_TRAINABLE):
            kinds = ", ".join(
                registry.kinds_with(Capability.STREAM_TRAINABLE)
            )
            print(f"error: --stream-chunk is not supported by "
                  f"{spec.display_name}; stream-trainable kinds: "
                  f"{kinds}", file=sys.stderr)
            return 2
        if args.stream_chunk <= 0:
            print("error: --stream-chunk must be positive",
                  file=sys.stderr)
            return 2
        return _train_streaming(args, spec)
    training = load_corpus(args.training)
    base_dictionary: Sequence[str] = ()
    if args.base:
        base_dictionary = load_corpus(args.base).unique_passwords()
    meter = registry.build_meter(
        args.kind,
        _train_context(args, list(training.items()), base_dictionary),
    )
    save_meter(meter, args.output, fmt=args.model_format)
    print(f"trained {meter.name} on {training.total} passwords "
          f"-> {args.output}")
    return 0


def _train_streaming(args: argparse.Namespace, spec) -> int:
    """The out-of-core training path behind ``--stream-chunk``.

    The corpus is never materialised: chunks stream straight off disk
    into the trainer (serial, or the parallel delta pool with
    ``--jobs``), so peak memory is bounded by the chunk size and the
    trainer's in-flight window.
    """
    base_dictionary: Sequence[str] = ()
    if args.base:
        base_dictionary = load_corpus(args.base).unique_passwords()
    trained = 0

    def counted_chunks():
        nonlocal trained
        for chunk in stream_corpus_chunks(
            args.training, chunk_size=args.stream_chunk
        ):
            trained += len(chunk)
            yield chunk

    meter = spec.cls.train_streaming(
        base_dictionary,
        counted_chunks(),
        config=_fuzzy_config(args),
        jobs=args.jobs,
    )
    save_meter(meter, args.output, fmt=args.model_format)
    print(f"trained {meter.name} on {trained} streamed passwords "
          f"-> {args.output}")
    return 0


def _score_stream(meter, passwords: Sequence[str],
                  score_jobs: Optional[int]) -> List[float]:
    """Bulk-score via the registry capability, never a concrete type.

    ``--score-jobs`` only reaches meters whose spec declares the
    parallel-scorable capability; everything else scores serially —
    the flag degrades gracefully instead of erroring on, say, a saved
    Markov model.
    """
    spec = registry.spec_for(meter)
    if (
        score_jobs is not None
        and spec is not None
        and spec.has(Capability.PARALLEL_SCORABLE)
    ):
        return meter.probability_many(passwords, jobs=score_jobs)
    return meter.probability_many(passwords)


def _cmd_measure(args: argparse.Namespace) -> int:
    meter = load_meter(args.model)
    passwords: Sequence[str] = args.passwords or [
        line.rstrip("\n") for line in sys.stdin if line.strip()
    ]
    # One batched pass: meters with vectorised overrides (fuzzyPSM's
    # parse cache, the PCFG/Markov memos) score repeats only once.
    probabilities = _score_stream(meter, passwords, args.score_jobs)
    print(format_table(
        ["password", "probability", "entropy(bits)"],
        [
            [pw, f"{probability:.3e}",
             f"{probability_to_entropy(probability):.2f}"]
            for pw, probability in zip(passwords, probabilities)
        ],
    ))
    return 0


def _cmd_meters(args: argparse.Namespace) -> int:
    specs = registry.all_specs()
    if args.output_format == "json":
        print(json.dumps(
            {
                kind: {
                    "display_name": spec.display_name,
                    "capabilities": spec.capability_names(),
                    "requires_base_dictionary":
                        spec.requires_base_dictionary,
                    "summary": spec.summary,
                }
                for kind, spec in specs.items()
            },
            indent=2, sort_keys=True,
        ))
        return 0
    print(format_table(
        ["kind", "name", "capabilities", "summary"],
        [
            [kind, spec.display_name,
             ", ".join(spec.capability_names()), spec.summary]
            for kind, spec in specs.items()
        ],
        title="registered meters",
    ))
    return 0


def _cmd_guess(args: argparse.Namespace) -> int:
    meter = load_meter(args.model)
    for rank, (guess, probability) in enumerate(
        meter.iter_guesses(limit=args.count), start=1
    ):
        print(f"{rank}\t{probability:.3e}\t{guess}")
    return 0


def _cmd_scenarios(_args: argparse.Namespace) -> int:
    print(format_table(
        ["name", "figure", "kind", "base", "train", "test"],
        [
            [s.name, s.figure, s.kind, s.base_dataset,
             s.train_dataset or "-", s.test_dataset]
            for s in ALL_SCENARIOS
        ],
        title="Table XI -- training and testing scenarios",
    ))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        corpus_size=args.corpus_size,
        base_corpus_size=args.base_corpus_size,
        seed=args.seed,
        score_jobs=args.score_jobs,
    )
    chosen = scenario(args.scenario)
    if args.seeds:
        from repro.experiments.robustness import (
            run_scenario_across_seeds,
        )
        try:
            seeds = [int(part) for part in args.seeds.split(",") if part]
        except ValueError:
            print("error: --seeds expects comma-separated integers",
                  file=sys.stderr)
            return 2
        result = run_scenario_across_seeds(
            chosen, seeds=seeds, config=config,
            min_frequency=args.min_frequency,
        )
        print(format_table(
            ["meter", "mean rank +/- std", "mean tau", "wins"],
            result.rows(),
            title=f"{chosen.name} across seeds {seeds}",
        ))
        return 0
    result = run_scenario(
        chosen, config=config, min_frequency=args.min_frequency,
    )
    print(format_curves(result))
    print()
    print("ranking:", format_ranking(result))
    return 0


def _cmd_coach(args: argparse.Namespace) -> int:
    from repro.core.suggestions import (
        improvement_report,
        suggest_stronger,
    )
    meter = load_meter(args.model)
    for password in args.passwords:
        if meter.entropy(password) >= args.target_bits:
            print(f"{password!r}: already at or above "
                  f"{args.target_bits:.0f} bits")
            continue
        suggestions = suggest_stronger(
            meter, password, target_bits=args.target_bits,
            max_suggestions=args.max_suggestions,
        )
        for line in improvement_report(meter, password, suggestions):
            print(line)
        print()
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    handlers = {
        "enumerate": _cmd_attack_enumerate,
        "masks": _cmd_attack_masks,
        "simulate": _cmd_attack_simulate,
        "crossover": _cmd_attack_crossover,
    }
    return handlers[args.attack_command](args)


def _cmd_attack_enumerate(args: argparse.Namespace) -> int:
    from repro.attacks import Beam, guess_stream_for
    meter = load_meter(args.model)
    beam = None
    if args.beam_width is not None or args.beam_floor:
        beam = Beam(width=args.beam_width, floor=args.beam_floor)
    stream = guess_stream_for(meter, limit=args.count, beam=beam)
    for rank, (guess, probability) in enumerate(stream, start=1):
        print(f"{rank}\t{probability:.3e}\t{guess}")
    stats = stream.stats
    if args.stats and stats is not None:
        print(
            f"pops={stats.pops} pushes={stats.pushes} "
            f"yielded={stats.yielded} "
            f"floor_dropped={stats.floor_dropped} "
            f"width_dropped={stats.width_dropped} "
            f"dropped_mass={stats.dropped_mass:.3e}",
            file=sys.stderr,
        )
    return 0


def _cmd_attack_masks(args: argparse.Namespace) -> int:
    from repro.attacks import compile_mask_set, compile_rules
    from repro.attacks import export_hashcat, guess_stream_for
    from repro.persistence import save_mask_set
    meter = load_meter(args.model)
    rules = ()
    frozen_grammar = getattr(meter, "frozen_grammar", None)
    if frozen_grammar is not None:
        rules = compile_rules(frozen_grammar())
    mask_set = compile_mask_set(
        guess_stream_for(meter, limit=args.source_guesses),
        policy=args.policy,
        max_masks=args.max_masks,
        rules=rules,
        source=meter.name,
    )
    print(format_table(
        ["rank", "mask", "keyspace", "mass", "efficiency"],
        [
            [rank, entry.mask, f"{entry.keyspace:,}",
             f"{entry.probability:.3e}", f"{entry.efficiency:.3e}"]
            for rank, entry in enumerate(
                mask_set.entries[:args.top], start=1
            )
        ],
        title=f"top masks ({mask_set.policy} policy, "
              f"{mask_set.source_guesses:,} source guesses)",
    ))
    if mask_set.rules:
        print()
        print(format_table(
            ["rule", "probability", "description"],
            [
                [rule.rule, f"{rule.probability:.3e}", rule.description]
                for rule in mask_set.rules
            ],
            title="substitution rules",
        ))
    if args.output:
        save_mask_set(mask_set, args.output)
        print(f"\nmask set ({len(mask_set.entries)} masks) "
              f"-> {args.output}")
    if args.export:
        written = export_hashcat(mask_set, args.export)
        for kind in sorted(written):
            print(f"hashcat {kind} -> {written[kind]}")
    return 0


def _cmd_attack_simulate(args: argparse.Namespace) -> int:
    from repro.attacks import (
        HASH_PROFILES,
        LockoutPolicy,
        OfflineAttack,
        OnlineAttack,
        guess_stream_for,
    )
    meter = load_meter(args.model)
    victims = load_corpus(args.victims)
    online = OnlineAttack(
        LockoutPolicy(attempts_per_window=args.lockout)
    ).run(guess_stream_for(meter), victims)
    offline = OfflineAttack(
        HASH_PROFILES[args.hash_name],
        seconds=args.hours * 3600.0,
        max_stream_guesses=args.max_guesses,
    ).run(guess_stream_for(meter), victims)
    print(online.summary())
    print(offline.summary())
    return 0


def _cmd_attack_crossover(args: argparse.Namespace) -> int:
    from repro.attacks import crossover_report, guess_stream_for
    meter = load_meter(args.model)
    baseline = load_meter(args.baseline)
    victims = load_corpus(args.victims)
    limit = args.enumerate_limit
    if limit is None:
        limit = args.online_budget
    report = crossover_report(
        [
            (meter.name, guess_stream_for(meter, limit=limit)),
            (baseline.name, guess_stream_for(baseline, limit=limit)),
        ],
        victims,
        online_budget=args.online_budget,
        offline_budget=args.offline_budget,
        policy=args.policy,
        enumerate_limit=limit,
    )
    for label, attribute in (("online", "online"), ("offline", "offline")):
        grid = [
            point.guesses for point in getattr(report.curves[0], attribute)
        ]
        rows = []
        for curve in report.curves:
            points = getattr(curve, attribute)
            rows.append(
                [curve.name]
                + [format_percent(p.cracked_fraction) for p in points]
            )
        print(format_table(
            ["meter"] + [f"{g:,}" for g in grid],
            rows,
            title=f"{label} cracked fraction by guess budget",
        ))
        print()
    for label, flip in (
        ("online", report.online_crossover),
        ("offline", report.offline_crossover),
    ):
        if flip is None:
            print(f"{label} crossover: none "
                  f"(one meter leads throughout)")
        else:
            guesses, first, second = flip
            print(
                f"{label} crossover at {int(guesses):,} guesses: "
                f"{report.curves[0].name} {format_percent(first)} vs "
                f"{report.curves[1].name} {format_percent(second)}"
            )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    telemetry_flags = (args.base, args.train_corpus, args.stream)
    if any(telemetry_flags):
        if not all(telemetry_flags):
            print("error: telemetry mode needs all of --base, --train "
                  "and --stream", file=sys.stderr)
            return 2
        if args.corpus:
            print("error: the corpus positional and --base/--train/"
                  "--stream are mutually exclusive", file=sys.stderr)
            return 2
        return _cmd_profile_pipeline(args)
    if not args.corpus:
        print("error: a corpus file (or --base/--train/--stream) "
              "is required", file=sys.stderr)
        return 2
    from repro.datasets.zipf import fit_zipf, ideal_meter_coverage
    from repro.metrics.guesswork import guessing_profile
    corpus = load_corpus(args.corpus)
    summary = guessing_profile(corpus, online_budget=args.online_budget)
    rows = [
        ["unique / total", f"{corpus.unique:,} / {corpus.total:,}"],
        ["min-entropy", f"{summary.min_entropy_bits:.2f} bits"],
        ["Shannon entropy", f"{summary.shannon_bits:.2f} bits"],
        [f"lambda_{args.online_budget} (online success)",
         format_percent(summary.online_success_rate)],
        ["mu_0.5 (median work factor)",
         f"{summary.offline_work_factor:,} guesses"],
        ["G~_0.5 (effective guesswork)",
         f"{summary.effective_guesswork_bits:.2f} bits"],
    ]
    try:
        fit = fit_zipf(corpus)
        mass, unique = ideal_meter_coverage(corpus, threshold=4)
        rows.append(["Zipf exponent (R^2)",
                     f"{fit.exponent:.2f} ({fit.r_squared:.3f})"])
        rows.append(["f>=4 coverage (mass / unique)",
                     f"{format_percent(mass)} / {format_percent(unique)}"])
    except ValueError:
        rows.append(["Zipf exponent", "n/a (too few repeated passwords)"])
    print(format_table(
        ["quantity", "value"], rows,
        title=f"guessing profile: {corpus.name}",
    ))
    return 0


def _cmd_profile_pipeline(args: argparse.Namespace) -> int:
    """Train-and-score a workload under telemetry; emit the report."""
    from repro import obs
    from repro.obs.report import build_report, render_report
    from repro.persistence import save_telemetry_report
    base = load_corpus(args.base)
    training = load_corpus(args.train_corpus)
    stream_corpus = load_corpus(args.stream)
    stream = list(stream_corpus.expand())
    options = {"jobs": args.jobs}
    if args.parse_cache_size is not None:
        from repro.core.meter import FuzzyPSMConfig
        options["fuzzy_config"] = FuzzyPSMConfig(
            parse_cache_size=args.parse_cache_size
        )
    with obs.session() as telemetry:
        with telemetry.timer("profile.load.seconds"):
            base_dictionary = base.unique_passwords()
            training_items = list(training.items())
        with telemetry.timer("profile.train.seconds"):
            meter = registry.build_meter(
                "fuzzypsm",
                TrainContext(
                    training=tuple(training_items),
                    base_dictionary=tuple(base_dictionary),
                    options=options,
                ),
            )
        with telemetry.timer("profile.score.seconds"):
            for _ in range(max(1, args.repeat)):
                _score_stream(meter, stream, args.score_jobs)
        # Structural cache state (occupancy/capacity) complements the
        # hit/miss/evict counters that live in the telemetry snapshot.
        parser = getattr(meter, "parser", None)
        report = build_report(
            telemetry.snapshot(),
            parse_cache_info=(
                parser.cache_info() if parser is not None else None
            ),
        )
    report["workload"] = {
        "base": args.base,
        "train": args.train_corpus,
        "stream": args.stream,
        "stream_passwords": len(stream),
        "stream_distinct": stream_corpus.unique,
        "repeat": max(1, args.repeat),
        "jobs": args.jobs,
        "score_jobs": args.score_jobs,
    }
    if args.output:
        save_telemetry_report(report, args.output)
    if args.output_format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in render_report(report):
            print(line)
        if args.output:
            print(f"\nreport written to {args.output}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import describe_rules, run as run_lint
    from repro.analysis.reporters import render_rule_table_markdown
    if args.list_rules:
        if args.output_format == "markdown":
            print(render_rule_table_markdown(describe_rules()), end="")
        else:
            print(format_table(
                ["id", "name", "summary"],
                [list(row) for row in describe_rules()],
                title="repro lint rule catalogue",
            ))
        return 0
    if args.output_format == "markdown":
        print(
            "error: --format markdown is only valid with --list-rules",
            file=sys.stderr,
        )
        return 2
    cache_path = None if args.no_cache else args.cache_path
    return run_lint(
        args.paths, output_format=args.output_format, select=args.select,
        jobs=args.jobs, cache_path=cache_path, fix=args.fix,
    )


async def _serve_until_signal(
    registry: SnapshotRegistry, config: ServeConfig
) -> int:
    """Run the server until SIGINT/SIGTERM, then drain and stop."""
    server = ReproServer(registry, config)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX
            break
    # perfbench/serving.py and tools/serve_smoke.py parse this exact
    # text (`serving \d+ worker\(s\) on`), so it stays as it is.
    print(
        f"serving 0 worker(s) on http://{config.host}:{server.port}",
        flush=True,
    )
    print("models: " + ", ".join(server.models), flush=True)
    try:
        await stop.wait()
    finally:
        await server.stop()
    return 0


def _parse_model_spec(spec: str) -> Tuple[str, str]:
    """``NAME=PATH`` → ``(name, path)``; a bare path names itself.

    A spec counts as named only when the part before the first ``=``
    is non-empty and not itself a path; bare paths take their file
    stem as the model name.
    """
    name, separator, path = spec.partition("=")
    if separator and name and os.sep not in name:
        return name, path
    stem = os.path.splitext(os.path.basename(spec))[0]
    return stem or "default", spec


def _cmd_serve(args: argparse.Namespace) -> int:
    registry = SnapshotRegistry()
    for spec in args.models:
        name, path = _parse_model_spec(spec)
        try:
            registry.add(name, load_meter(path))
        except ValueError as error:
            print(f"error: --model {spec}: {error}", file=sys.stderr)
            return 2
    config = ServeConfig(
        host=args.host,
        port=args.port,
        batch_window=args.batch_window,
        max_batch=args.max_batch,
        max_body=args.max_body,
    )
    try:
        return asyncio.run(_serve_until_signal(registry, config))
    except KeyboardInterrupt:  # pragma: no cover - direct ^C race
        return 0


_HANDLERS = {
    "survey": _cmd_survey,
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "train": _cmd_train,
    "measure": _cmd_measure,
    "guess": _cmd_guess,
    "meters": _cmd_meters,
    "scenarios": _cmd_scenarios,
    "experiment": _cmd_experiment,
    "coach": _cmd_coach,
    "attack": _cmd_attack,
    "profile": _cmd_profile,
    "serve": _cmd_serve,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - module CLI shim
    sys.exit(main())
