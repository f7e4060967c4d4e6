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
#: the documents quote by entry name.
RATIO_QUOTES = [
    ("parse_compiled_vs_pointer", "ratio",
     r"`+parse_compiled_vs_pointer`+:\s+([\d.]+)(?:\u00d7|x)",
     ("README.md", "DESIGN.md", "EXPERIMENTS.md")),
    ("batch_vs_loop_scoring", "fuzzypsm_speedup",
     r"`+batch_vs_loop_scoring`+:\s+fuzzyPSM\s+([\d.]+)(?:\u00d7|x)",
     ("EXPERIMENTS.md",)),
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
