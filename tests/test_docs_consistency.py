"""Consistency checks between the documentation and the code.

A reproduction repo lives or dies by its docs staying true: DESIGN.md
must reference bench files and modules that exist, README's layout
must match the package, and every public export must resolve.
"""

import importlib
import json
import os
import re

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read(name):
    with open(os.path.join(REPO_ROOT, name), encoding="utf-8") as handle:
        return handle.read()


#: Options and types that were removed from the code; a document still
#: naming one describes behaviour that no longer exists.
REMOVED_NAMES = (
    "use_compiled_trie", "--no-compile", "ServingSnapshot",
    "SnapshotScorer", "FuzzyPSM.accept", "--workers", "WorkerPool",
    "WorkerCrash", "supervisor_interval", "from_snapshot",
    "parse_cached", "parse_flat_cached", "--score-jobs", "shared_segment",
    "PARALLEL_SCORABLE", "parallel-scorable", "PARALLEL_MIN_DISTINCT",
    "from_tables", "DeltaBuilder", "DeltaMerger", "GrammarDelta",
    "CompiledTrie", "SharedScoringSegment", "MaterializedScoringState",
    "_worker_attach", "WORKER_ATTACH_PREFIX", "REPRO_START_METHOD",
    "_training_pool", "_worker_init_shared", "_count_slice",
    "_train_windows", "_train_streaming_parallel", "_effective_jobs",
    "_available_cpus", "_record_parallel_fallback", "PARALLEL_MIN_ENTRIES",
    "STREAM_INFLIGHT_PER_JOB", "_iter_entries", "_train_grammar_serial",
    "WordIndex.to_arrays", "WordIndex.from_arrays",
    "ensure_compiled_matchers", "parallel_threshold",
    "ExperimentConfig.jobs", "training_serial_vs_jobs2", "snapshot_attach",
    "training_streaming_parallel", "LintCache", "file_digest", "rule_key",
    "ANALYZER_VERSION", "DEFAULT_CACHE_PATH", "fix_source", "--no-cache",
    "cache_path", "_PROFILE_SIGNATURE", "lint.cache.", "repro_lint_cache",
    "index.digest", "lint_incremental_cache", "sample_derivation",
    "FuzzyGrammar.sample", "grammar._sample_freqdist", "frozen.freeze",
    "load_telemetry_report", "iter_printable", "auto_update",
    "batch_window", "--batch-window", "max_seen", "max_buffer",
    "_validate_factor", "enum.lazy.truncated", "enum.dedup.seen_capped",
    "max_attempts", "BATCH_SCORABLE", "BatchScorable", "batch-scorable",
    "persistence.TrainedMeter", "config_key", "Meter.probabilities",
    "dedupe=", "validate=",
)


@pytest.mark.parametrize("document", ["README.md", "DESIGN.md"])
def test_docs_name_no_removed_api(document):
    text = _read(document)
    named = [name for name in REMOVED_NAMES if name in text]
    assert not named, f"{document} still names removed API: {named}"


#: How documents quote the ``frozen_refresh`` bench entry's medians.
REFRESH_QUOTE = re.compile(
    r"`+frozen_refresh`+:\s+([\d.]+) ms\s+refresh,\s+([\d.]+) ms\s+full"
    r"\s+build"
)


@pytest.mark.parametrize(
    "document", ["README.md", "DESIGN.md", "src/repro/core/frozen.py"]
)
def test_refresh_figures_match_the_bench(document):
    entry = json.loads(_read("BENCH_timing.json"))["frozen_refresh"]
    quotes = REFRESH_QUOTE.findall(_read(document))
    assert quotes, f"{document} quotes no frozen_refresh figures"
    for refresh, full in quotes:
        for quoted, key in ((refresh, "refresh_median_ms"),
                            (full, "full_median_ms")):
            decimals = len(quoted.partition(".")[2])
            assert float(quoted) == round(entry[key], decimals), \
                (document, key, quoted, entry[key])


#: How documents quote the ``model_setup`` bench entry's medians.
SETUP_QUOTE = re.compile(
    r"`+model_setup`+:\s+([\d.]+) ms\s+from\s+file\s+to\s+first\s+block,"
    r"\s+([\d.]+) ms\s+of\s+it\s+the\s+frozen\s+build"
)


@pytest.mark.parametrize("document", ["README.md", "DESIGN.md"])
def test_setup_figures_match_the_bench(document):
    entry = json.loads(_read("BENCH_timing.json"))["model_setup"]
    quotes = SETUP_QUOTE.findall(_read(document))
    assert quotes, f"{document} quotes no model_setup figures"
    for setup, frozen in quotes:
        for quoted, key in ((setup, "setup_ms_median"),
                            (frozen, "frozen_ms_median")):
            decimals = len(quoted.partition(".")[2])
            assert float(quoted) == round(entry[key], decimals), \
                (document, key, quoted, entry[key])


#: Bench entries that must carry the host block and report every
#: repeated timing as median, min and max.  Entries only join this list.
SPREAD_ENTRIES = ("frozen_refresh", "frozen_kernel", "model_setup",
                  "training_serial", "training_streaming",
                  "attack_enumeration", "measure_single",
                  "serve_throughput")
HOST_KEYS = ("nproc", "python", "start_method", "git_sha")


@pytest.mark.parametrize("name", SPREAD_ENTRIES)
def test_entries_carry_host_and_spread(name):
    entry = json.loads(_read("BENCH_timing.json"))[name]
    missing = [key for key in HOST_KEYS if key not in entry]
    assert not missing, f"{name} lacks host keys {missing}"
    medians = [key for key in entry if "median" in key]
    assert medians, f"{name} reports no median"
    for key in medians:
        for statistic in ("min", "max"):
            partner = key.replace("median", statistic)
            assert partner in entry, f"{name} has {key} but no {partner}"


#: How documents quote the ``serve_throughput`` bench entry's speedup.
SERVE_QUOTE = re.compile(r"`+serve_throughput`+:\s+([\d.]+)x\s+batched")


@pytest.mark.parametrize(
    "document", ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
)
def test_serve_speedup_matches_the_bench(document):
    entry = json.loads(_read("BENCH_timing.json"))["serve_throughput"]
    quotes = SERVE_QUOTE.findall(_read(document))
    assert quotes, f"{document} quotes no serve_throughput speedup"
    for quoted in quotes:
        decimals = len(quoted.partition(".")[2])
        assert float(quoted) == round(entry["speedup"], decimals), \
            (document, quoted, entry["speedup"])


#: ``(bench entry, key, quote pattern, documents)`` of the speed-ups
#: and latencies the documents quote by entry name.
RATIO_QUOTES = [
    ("parse_index_vs_pointer", "ratio",
     r"`+parse_index_vs_pointer`+:\s+([\d.]+)(?:\u00d7|x)",
     ("README.md", "DESIGN.md", "EXPERIMENTS.md")),
    ("batch_vs_loop_scoring", "fuzzypsm_speedup",
     r"`+batch_vs_loop_scoring`+:\s+fuzzyPSM\s+([\d.]+)(?:\u00d7|x)",
     ("EXPERIMENTS.md",)),
    ("attack_enumeration", "speedup",
     r"`+attack_enumeration`+:\s+([\d.]+)(?:\u00d7|x)",
     ("README.md", "DESIGN.md", "EXPERIMENTS.md")),
    ("frozen_kernel", "speedup",
     r"`+frozen_kernel`+:\s+([\d.]+)(?:\u00d7|x)",
     ("EXPERIMENTS.md",)),
    ("training_serial", "seconds_per_million",
     r"`+training_serial`+:\s+([\d.]+)\s+s\s+per\s+million",
     ("EXPERIMENTS.md",)),
] + [
    # "`training_streaming`: reference 11.8 s, streamed 3.1 s (3.81x)":
    # one pattern per quoted median.
    ("training_streaming", key,
     r"`+training_streaming`+:\s+reference\s+" + prefix + r"([\d.]+)",
     ("README.md", "EXPERIMENTS.md"))
    for key, prefix in (
        ("reference_seconds_median", ""),
        ("streamed_seconds_median", r"[\d.]+\s+s,\s+streamed\s+"),
        ("speedup_median",
         r"[\d.]+\s+s,\s+streamed\s+[\d.]+\s+s\s+\("),
    )
]


@pytest.mark.parametrize(
    "entry,key,pattern,document",
    [
        (entry, key, pattern, document)
        for entry, key, pattern, documents in RATIO_QUOTES
        for document in documents
    ],
)
def test_quoted_ratios_match_the_bench(entry, key, pattern, document):
    value = json.loads(_read("BENCH_timing.json"))[entry][key]
    quotes = re.findall(pattern, _read(document))
    assert quotes, f"{document} quotes no {entry} figure"
    for quoted in quotes:
        decimals = len(quoted.partition(".")[2])
        assert float(quoted) == round(value, decimals), \
            (document, entry, quoted, value)


class TestDesignDocument:
    @pytest.fixture(scope="class")
    def design(self):
        return _read("DESIGN.md")

    def test_referenced_bench_files_exist(self, design):
        for match in re.finditer(r"benchmarks/(test_\w+\.py)", design):
            path = os.path.join(REPO_ROOT, "benchmarks", match.group(1))
            assert os.path.exists(path), match.group(0)

    def test_referenced_modules_importable(self, design):
        for match in re.finditer(r"`(repro(?:\.\w+)+)`", design):
            module = match.group(1)
            # Strip attribute-style references like repro.core.meter.
            try:
                importlib.import_module(module)
            except ModuleNotFoundError:
                parent, _, attr = module.rpartition(".")
                imported = importlib.import_module(parent)
                assert hasattr(imported, attr), module

    def test_every_table_and_figure_indexed(self, design):
        # Tables I-XI and Figs 2-13 all appear in the experiment index.
        for table in ("Table I", "Table II", "Table III", "Table VII",
                      "Table VIII", "Table X", "Table XI"):
            assert table in design
        normalised = design.replace("Fig. ", "Fig ").replace(
            "Figs ", "Fig "
        )
        for figure in ("Fig 9", "Fig 10", "Fig 12", "Fig 13"):
            assert figure in normalised, figure

    def test_no_wrong_paper_marker(self, design):
        # Per the task contract, a title mismatch would be flagged at
        # the top of DESIGN.md; assert we confirmed the match instead.
        head = design[:600].lower()
        assert "matches the title/venue/authors" in head
        assert "mismatch" not in head


class TestReadme:
    @pytest.fixture(scope="class")
    def readme(self):
        return _read("README.md")

    def test_layout_paths_exist(self, readme):
        block = readme.split("```")[3]  # the architecture tree
        for line in block.splitlines():
            stripped = line.strip()
            if stripped.endswith(".py") and "/" not in stripped:
                continue
            match = re.match(r"^(src/repro/[\w/]+\.?p?y?)", stripped)
            if match:
                assert os.path.exists(
                    os.path.join(REPO_ROOT, match.group(1))
                ), match.group(1)

    def test_example_scripts_exist(self, readme):
        for match in re.finditer(r"`(\w+\.py)`", readme):
            name = match.group(1)
            candidate = os.path.join(REPO_ROOT, "examples", name)
            inside_package = any(
                name in files
                for _, _, files in os.walk(
                    os.path.join(REPO_ROOT, "src")
                )
            )
            assert os.path.exists(candidate) or inside_package, name

    def test_cli_commands_documented_and_real(self, readme):
        from repro.cli import _HANDLERS
        for command in ("survey", "generate", "stats", "train",
                        "measure", "guess", "experiment", "coach",
                        "attack", "profile"):
            assert command in _HANDLERS
            assert f"repro {command}" in readme, command

    def test_lint_rule_table_matches_registry(self, readme):
        # The README table is generated by
        # ``repro lint --list-rules --format markdown``; regenerate it
        # from the live registry and require byte-equality so the docs
        # can never drift from the shipped rule set.
        from repro.analysis import describe_rules
        from repro.analysis.reporters import render_rule_table_markdown

        match = re.search(
            r"<!-- BEGIN LINT RULE TABLE[^\n]*-->\n(.*?)"
            r"<!-- END LINT RULE TABLE -->",
            readme,
            re.S,
        )
        assert match is not None, "rule-table markers missing"
        assert match.group(1) == render_rule_table_markdown(
            describe_rules()
        )


class TestExperimentsDocument:
    @pytest.fixture(scope="class")
    def experiments(self):
        return _read("EXPERIMENTS.md")

    def test_referenced_benches_exist(self, experiments):
        for match in re.finditer(r"`(test_\w+\.py)`", experiments):
            path = os.path.join(REPO_ROOT, "benchmarks", match.group(1))
            assert os.path.exists(path), match.group(1)

    def test_every_bench_file_documented(self, experiments):
        bench_dir = os.path.join(REPO_ROOT, "benchmarks")
        for name in os.listdir(bench_dir):
            if name.startswith("test_") and name.endswith(".py"):
                assert name in experiments or name.replace(
                    ".py", ""
                ) in experiments, name


class TestPublicApi:
    def test_top_level_exports_resolve(self):
        import repro
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_exports_resolve(self):
        for module_name in ("repro.core", "repro.meters",
                            "repro.metrics", "repro.datasets",
                            "repro.experiments", "repro.attacks"):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), (module_name, name)
