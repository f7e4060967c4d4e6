"""Tests for the domain-invariant linter (repro.analysis).

Covers, per ISSUE 2: positive/negative fixture snippets for every
rule, reporter golden output, suppression semantics, the CLI
subcommand, and the meta-test that ``src/repro`` itself is lint-clean.
"""

from __future__ import annotations

import io
import json
import pathlib
import textwrap

import pytest

from repro.analysis import (
    all_rules,
    check_source,
    describe_rules,
    lint_paths,
    run,
)
from repro.cli import main as cli_main

SRC_ROOT = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def rule_ids_of(source, select=None):
    """The sorted rule ids the linter reports for a snippet.

    ``select`` scopes negative tests to the rule under test, so
    deliberately-minimal fixtures (e.g. unannotated ``def f``) do not
    trip unrelated rules.
    """
    snippet = textwrap.dedent(source)
    return sorted({v.rule_id for v in check_source(snippet, select=select)})


def lines_of(source, select=None):
    snippet = textwrap.dedent(source)
    return [
        (v.rule_id, v.line)
        for v in check_source(snippet, select=select)
    ]


class TestRegistry:
    def test_all_fifteen_domain_rules_registered(self):
        assert list(all_rules()) == [
            "FPM001", "FPM002", "FPM003", "FPM004",
            "FPM005", "FPM006", "FPM007", "FPM008",
            "FPM009", "FPM010", "FPM011", "FPM012",
            "FPM013", "FPM014", "FPM015",
        ]

    def test_descriptions_cover_every_rule(self):
        rows = describe_rules()
        assert [row[0] for row in rows] == list(all_rules())
        assert all(row[1] and row[2] for row in rows)


class TestFloatProbabilityCompare:
    def test_flags_probability_equality(self):
        assert "FPM001" in rule_ids_of("""
            def f(probability, expected):
                return probability == expected
        """)

    def test_flags_entropy_inequality_and_method_calls(self):
        assert "FPM001" in rule_ids_of("""
            def f(meter, pw, x):
                return meter.entropy(pw) != x
        """)

    def test_allows_exact_sentinels(self):
        assert rule_ids_of("""
            def f(probability, entropy):
                import math
                return (probability == 0.0 or probability == 1
                        or entropy == math.inf
                        or entropy == float("inf"))
        """, select=["FPM001"]) == []

    def test_allows_ordering_and_non_probability_names(self):
        assert rule_ids_of("""
            def f(probability, position, other):
                return probability >= 0.5 and position == other
        """, select=["FPM001"]) == []


class TestRawProbabilityProduct:
    def test_flags_math_prod(self):
        assert "FPM002" in rule_ids_of("""
            import math
            def f(probabilities):
                return math.prod(probabilities)
        """)

    def test_flags_product_accumulation(self):
        assert "FPM002" in rule_ids_of("""
            def f(factors):
                probability = 1.0
                for factor in factors:
                    probability *= factor
                return probability
        """)

    def test_blessed_kernel_is_allowed(self):
        assert rule_ids_of("""
            class FuzzyGrammar:
                def derivation_probability(self, derivation):
                    probability = 1.0
                    for segment in derivation:
                        probability *= 0.5
                    return probability
        """, select=["FPM002"]) == []

    def test_non_probability_accumulation_is_allowed(self):
        assert rule_ids_of("""
            def f(values):
                total = 1
                for value in values:
                    total *= value
                return total
        """, select=["FPM002"]) == []


class TestUnseededRandom:
    def test_flags_global_rng_calls(self):
        assert "FPM003" in rule_ids_of("""
            import random
            def f():
                return random.random()
        """)

    def test_flags_seedless_random_instance_and_seed(self):
        ids = [rid for rid, _ in lines_of("""
            import random
            def f():
                random.seed(42)
                return random.Random()
        """)]
        assert ids.count("FPM003") == 2

    def test_flags_from_import_of_global_functions(self):
        assert "FPM003" in rule_ids_of("""
            from random import choice
            def f(items):
                return choice(items)
        """)

    def test_flags_numpy_global_state(self):
        assert "FPM003" in rule_ids_of("""
            import numpy as np
            def f():
                return np.random.rand(3)
        """)

    def test_allows_seeded_instances(self):
        assert rule_ids_of("""
            import random
            import numpy as np
            def f(rng: random.Random):
                seeded = random.Random(0)
                gen = np.random.default_rng(7)
                return rng.random() + seeded.random()
        """, select=["FPM003"]) == []


class TestUnorderedSerialization:
    def test_flags_set_iteration_in_to_dict(self):
        assert "FPM004" in rule_ids_of("""
            def to_dict(words):
                return [w for w in set(words)]
        """)

    def test_flags_set_literal_in_merge_for_loop(self):
        assert "FPM004" in rule_ids_of("""
            def merge(a, b):
                out = []
                for item in {a, b}:
                    out.append(item)
                return out
        """)

    def test_sorted_wrapper_is_allowed(self):
        assert rule_ids_of("""
            def to_dict(words):
                return [w for w in sorted(set(words))]
        """, select=["FPM004"]) == []

    def test_set_iteration_outside_serialization_is_allowed(self):
        assert rule_ids_of("""
            def score(words):
                return [w for w in set(words)]
        """, select=["FPM004"]) == []


class TestUnpicklableWorker:
    def test_flags_lambda_passed_to_pool(self):
        assert "FPM005" in rule_ids_of("""
            import multiprocessing
            def f(chunks):
                with multiprocessing.Pool(2) as pool:
                    return pool.map(lambda c: c, chunks)
        """)

    def test_flags_nested_function_worker(self):
        assert "FPM005" in rule_ids_of("""
            import multiprocessing
            def f(chunks):
                def work(chunk):
                    return chunk
                with multiprocessing.Pool(2) as pool:
                    return pool.map(work, chunks)
        """)

    def test_flags_lambda_initializer_keyword(self):
        assert "FPM005" in rule_ids_of("""
            import multiprocessing
            def f():
                return multiprocessing.Pool(
                    2, initializer=lambda: None
                )
        """)

    def test_module_level_worker_is_allowed(self):
        assert rule_ids_of("""
            import multiprocessing
            def work(chunk):
                return chunk
            def f(chunks):
                with multiprocessing.Pool(2) as pool:
                    return pool.map(work, chunks)
        """, select=["FPM005"]) == []

    def test_inactive_without_multiprocessing_import(self):
        assert rule_ids_of("""
            def f(items):
                return items.map(lambda x: x)
        """, select=["FPM005"]) == []


class TestSilentExcept:
    def test_flags_bare_except(self):
        assert "FPM006" in rule_ids_of("""
            def f():
                try:
                    return 1
                except:
                    return 0
        """)

    def test_flags_except_exception_pass(self):
        assert "FPM006" in rule_ids_of("""
            def f():
                try:
                    return 1
                except Exception:
                    pass
        """)

    def test_narrow_handler_is_allowed(self):
        assert rule_ids_of("""
            def f():
                try:
                    return 1
                except ValueError:
                    return 0
        """, select=["FPM006"]) == []

    def test_broad_handler_with_real_body_is_allowed(self):
        assert rule_ids_of("""
            def f(log):
                try:
                    return 1
                except Exception as error:
                    log(error)
                    raise
        """, select=["FPM006"]) == []


class TestMutableDefault:
    def test_flags_list_dict_and_constructor_defaults(self):
        ids = [rid for rid, _ in lines_of("""
            def f(a=[], b={}, *, c=dict()):
                return a, b, c
        """)]
        assert ids.count("FPM007") == 3

    def test_none_and_immutable_defaults_are_allowed(self):
        assert rule_ids_of("""
            def f(a=None, b=(), c="x", d=0):
                return a, b, c, d
        """, select=["FPM007"]) == []


class TestMissingAnnotations:
    def test_flags_unannotated_public_function(self):
        ids = rule_ids_of("""
            def public(value):
                return value
        """)
        assert ids == ["FPM008"]

    def test_flags_unannotated_public_method(self):
        assert "FPM008" in rule_ids_of("""
            class Meter:
                def score(self, password: str):
                    return 0.0
        """)

    def test_private_and_nested_functions_are_exempt(self):
        assert rule_ids_of("""
            def _helper(value):
                return value
            def public(value: int) -> int:
                def inner(x):
                    return x
                return inner(value)
        """) == []

    def test_fully_annotated_is_clean(self):
        assert rule_ids_of("""
            from typing import Optional
            class Meter:
                def score(self, password: str,
                          limit: Optional[int] = None) -> float:
                    return 0.0
        """) == []


class TestDirectClock:
    def test_flags_time_time_and_perf_counter(self):
        ids = [rid for rid, _ in lines_of("""
            import time
            def f():
                start = time.perf_counter()
                return time.time() - start
        """, select=["FPM009"])]
        assert ids.count("FPM009") == 2

    def test_flags_aliased_module_and_ns_variants(self):
        assert "FPM009" in rule_ids_of("""
            import time as t
            def f():
                return t.monotonic_ns()
        """, select=["FPM009"])

    def test_flags_from_import_with_alias(self):
        assert "FPM009" in rule_ids_of("""
            from time import perf_counter as clock
            def f():
                return clock()
        """, select=["FPM009"])

    def test_blessed_obs_clock_is_allowed(self):
        assert rule_ids_of("""
            from repro.obs.core import now
            def f():
                return now()
        """, select=["FPM009"]) == []

    def test_non_clock_time_functions_are_allowed(self):
        assert rule_ids_of("""
            import time
            def f():
                time.sleep(0.1)
                return time.strftime("%Y")
        """, select=["FPM009"]) == []

    def test_unrelated_names_are_not_confused(self):
        # A local object that happens to be called ``time`` must not
        # trip the module-attribute pattern.
        assert rule_ids_of("""
            def f(time):
                return time.perf_counter()
        """, select=["FPM009"]) == []

    def test_obs_paths_are_exempt(self):
        snippet = textwrap.dedent("""
            import time
            def f():
                return time.perf_counter()
        """)
        exempt = check_source(
            snippet, path="src/repro/obs/core.py", select=["FPM009"]
        )
        assert exempt == []
        bench = check_source(
            snippet, path="benchmarks/test_timing.py", select=["FPM009"]
        )
        assert bench == []
        flagged = check_source(
            snippet, path="src/repro/core/meter.py", select=["FPM009"]
        )
        assert [v.rule_id for v in flagged] == ["FPM009"]


class TestConcreteMeterDispatch:
    def test_flags_isinstance_against_concrete_meters(self):
        ids = [rid for rid, _ in lines_of("""
            def f(meter):
                if isinstance(meter, FuzzyPSM):
                    return 1
                if isinstance(meter, (PCFGMeter, MarkovMeter)):
                    return 2
                return 0
        """, select=["FPM010"])]
        # One violation per offending class: the tuple form names two.
        assert ids.count("FPM010") == 3

    def test_flags_dotted_class_references(self):
        assert "FPM010" in rule_ids_of("""
            import repro.meters.pcfg as pcfg
            def f(meter):
                return isinstance(meter, pcfg.PCFGMeter)
        """, select=["FPM010"])

    def test_flags_kind_literal_comparisons(self):
        ids = [rid for rid, _ in lines_of("""
            def f(kind):
                if kind == "markov":
                    return 1
                if kind in ("pcfg", "fuzzypsm"):
                    return 2
                return kind != "zxcvbn"
        """, select=["FPM010"])]
        assert ids.count("FPM010") >= 3

    def test_capability_protocol_checks_are_allowed(self):
        assert rule_ids_of("""
            from repro.meters.registry import Capability, Updatable
            def f(meter, spec):
                return isinstance(meter, Updatable) and spec.has(
                    Capability.PERSISTABLE
                )
        """, select=["FPM010"]) == []

    def test_scenario_kind_ideal_is_allowed(self):
        # ``ideal`` doubles as a *scenario* kind (the paper's
        # ideal/real/cross split); comparing it is not meter dispatch.
        assert rule_ids_of("""
            def f(scenario):
                return scenario.kind == "ideal"
        """, select=["FPM010"]) == []

    def test_registry_module_is_exempt(self):
        snippet = textwrap.dedent("""
            def f(kind):
                return kind == "markov"
        """)
        exempt = check_source(
            snippet, path="src/repro/meters/registry.py",
            select=["FPM010"],
        )
        assert exempt == []
        flagged = check_source(
            snippet, path="src/repro/cli.py", select=["FPM010"]
        )
        assert [v.rule_id for v in flagged] == ["FPM010"]


class TestGrammarTableAccess:
    def test_flags_direct_table_probability_calls(self):
        ids = [rid for rid, _ in lines_of("""
            def f(grammar, structure, base):
                a = grammar.structures.probability(structure)
                b = grammar.terminals[len(base)].probability(base)
                c = grammar.leet["L1"].smoothed_probability(True)
                return a * b * c
        """, select=["FPM011"])]
        assert ids.count("FPM011") == 3

    def test_count_reads_are_allowed(self):
        assert rule_ids_of("""
            def f(grammar, base):
                total = grammar.terminals[len(base)].total
                count = grammar.reverse.count(True)
                return count / total if total else 0.0
        """, select=["FPM011"]) == []

    def test_blessed_wrappers_are_allowed(self):
        assert rule_ids_of("""
            def f(grammar, frozen, derivation):
                exact = grammar.derivation_probability(derivation)
                fast = frozen.derivation_probability(derivation)
                return exact, fast
        """, select=["FPM011"]) == []

    def test_unrelated_probability_calls_are_allowed(self):
        assert rule_ids_of("""
            def f(dist, item):
                return dist.probability(item)
        """, select=["FPM011"]) == []

    def test_grammar_and_frozen_files_are_exempt(self):
        snippet = textwrap.dedent("""
            def f(grammar, structure):
                return grammar.structures.probability(structure)
        """)
        for path in (
            "src/repro/core/grammar.py",
            "src/repro/core/frozen.py",
        ):
            assert check_source(
                snippet, path=path, select=["FPM011"]
            ) == []
        flagged = check_source(
            snippet, path="src/repro/meters/pcfg.py", select=["FPM011"]
        )
        assert [v.rule_id for v in flagged] == ["FPM011"]


def lint_project(tmp_path, files, select=None, **kwargs):
    """Write ``files`` (name -> source) and lint the tree as a project.

    The cross-module rules (FPM012-015) only activate when a
    :class:`ProjectIndex` is available, which ``lint_paths`` builds
    over the discovered files — so project-rule fixtures go through
    the filesystem rather than ``check_source``.
    """
    for name, source in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    violations, _ = lint_paths([str(tmp_path)], select=select, **kwargs)
    return violations


POOL_FIXTURE = """
    import multiprocessing

    _TRIE = None


    def _worker_init_trie(trie):
        global _TRIE
        _TRIE = trie


    def leaky_helper(chunk):
        global _TRIE
        _TRIE = dict(chunk)
        return chunk


    def work(chunk):
        return leaky_helper(chunk)


    def launch(chunks):
        with multiprocessing.Pool(
            2, initializer=_worker_init_trie, initargs=(None,)
        ) as pool:
            return pool.map(work, chunks)
"""


class TestForkSafety:
    """FPM012 needs the project index: seeded bugs must be caught."""

    def test_seeded_transitive_worker_global_write(self, tmp_path):
        violations = lint_project(
            tmp_path, {"pipeline.py": POOL_FIXTURE}, select=["FPM012"]
        )
        assert [v.rule_id for v in violations] == ["FPM012"]
        assert "leaky_helper" in violations[0].message
        assert "_TRIE" in violations[0].message

    def test_blessed_initializer_may_write(self, tmp_path):
        clean = POOL_FIXTURE.replace(
            "return leaky_helper(chunk)", "return chunk"
        )
        violations = lint_project(
            tmp_path, {"pipeline.py": clean}, select=["FPM012"]
        )
        assert violations == []

    def test_non_worker_global_write_is_allowed(self, tmp_path):
        violations = lint_project(
            tmp_path,
            {
                "config.py": """
                    _FLAG = False


                    def enable():
                        global _FLAG
                        _FLAG = True
                """
            },
            select=["FPM012"],
        )
        assert violations == []

    def test_lambda_and_nested_task_targets(self, tmp_path):
        violations = lint_project(
            tmp_path,
            {
                "tasks.py": """
                    import multiprocessing


                    def launch(chunks):
                        def inner(chunk):
                            return chunk

                        with multiprocessing.Pool(2) as pool:
                            pool.map(lambda c: c, chunks)
                            return pool.map(inner, chunks)
                """
            },
            select=["FPM012"],
        )
        assert [v.rule_id for v in violations] == ["FPM012", "FPM012"]

    def test_literal_submit_argument_is_not_a_task(self, tmp_path):
        # ``.submit("data")`` on some non-executor object (an async
        # batcher, a bound collection) passes data, not a callable —
        # a constant first argument must never read as a lambda.
        violations = lint_project(
            tmp_path,
            {
                "client.py": """
                    async def enqueue(batcher):
                        return await batcher.submit("password123")
                """
            },
            select=["FPM012"],
        )
        assert violations == []

    def test_check_source_degrades_gracefully_without_index(self):
        # No index -> the rule cannot see call sites and stays silent
        # instead of guessing.
        assert rule_ids_of(POOL_FIXTURE, select=["FPM012"]) == []


GRAMMAR_FIXTURE = """
    class ToyGrammar:
        def __init__(self):
            self._epoch = 0
            self.structures = {}
            self.terminals = {}

        def observe(self, key):
            self.structures.add(key, 1)
            self._epoch += 1

        def sneaky(self, key):
            self.structures.add(key, 1)
"""


class TestEpochDiscipline:
    """FPM013: table mutation without an unconditional epoch bump."""

    def test_seeded_missing_bump_is_caught(self, tmp_path):
        violations = lint_project(
            tmp_path, {"grammar.py": GRAMMAR_FIXTURE}, select=["FPM013"]
        )
        assert [v.rule_id for v in violations] == ["FPM013"]
        assert "sneaky" in violations[0].message
        assert "structures" in violations[0].message

    def test_conditional_bump_is_still_a_violation(self, tmp_path):
        fixture = GRAMMAR_FIXTURE + textwrap.indent(
            textwrap.dedent("""
                def maybe(self, key, bump):
                    self.terminals[len(key)] = key
                    if bump:
                        self._epoch += 1
            """),
            "        ",
        )
        violations = lint_project(
            tmp_path, {"grammar.py": fixture}, select=["FPM013"]
        )
        assert [v.rule_id for v in violations] == ["FPM013", "FPM013"]
        assert any("maybe" in v.message for v in violations)
        assert any("sneaky" in v.message for v in violations)

    def test_annotated_parameter_mutation_across_modules(self, tmp_path):
        violations = lint_project(
            tmp_path,
            {
                "grammar.py": GRAMMAR_FIXTURE.replace(
                    "        def sneaky(self, key):\n"
                    "            self.structures.add(key, 1)\n", ""
                ),
                "merge.py": """
                    from grammar import ToyGrammar


                    def merge_into(grammar: ToyGrammar, items):
                        for item in items:
                            grammar.structures.add(item, 1)
                """,
            },
            select=["FPM013"],
        )
        assert [v.rule_id for v in violations] == ["FPM013"]
        assert violations[0].path.endswith("merge.py")

    def test_init_of_guarded_class_is_exempt(self, tmp_path):
        clean = GRAMMAR_FIXTURE.replace(
            "        def sneaky(self, key):\n"
            "            self.structures.add(key, 1)\n", ""
        )
        assert lint_project(
            tmp_path, {"grammar.py": clean}, select=["FPM013"]
        ) == []


TELEMETRY_FIXTURE = """
    from repro import obs

    obs.register_namespace("toylint")


    def record(telemetry, n):
        telemetry.incr("toylint.files")
        telemetry.observe("toylint.seconds", n)
        telemetry.incr("freeform")
        telemetry.incr("bogus.count")
        telemetry.incr(f"toylint.rule.{n}.hits")
        telemetry.incr(f"{n}.hits")
"""


class TestTelemetryNameHygiene:
    """FPM014: probe names must be dotted, registered-namespace literals."""

    def test_unregistered_and_undotted_names_are_caught(self, tmp_path):
        violations = lint_project(
            tmp_path, {"probes.py": TELEMETRY_FIXTURE}, select=["FPM014"]
        )
        assert [v.rule_id for v in violations] == ["FPM014"] * 3
        lines = [v.line for v in violations]
        source = textwrap.dedent(TELEMETRY_FIXTURE).splitlines()
        flagged = {source[line - 1].strip() for line in lines}
        assert flagged == {
            'telemetry.incr("freeform")',
            'telemetry.incr("bogus.count")',
            'telemetry.incr(f"{n}.hits")',
        }

    def test_namespaces_registered_in_fixture_are_authoritative(
        self, tmp_path
    ):
        # "toylint" is registered by the fixture module itself: the
        # index harvests register_namespace call sites statically.
        violations = lint_project(
            tmp_path,
            {
                "probes.py": """
                    from repro import obs

                    obs.register_namespace("toylint")


                    def record(telemetry):
                        telemetry.incr("toylint.ok")
                """
            },
            select=["FPM014"],
        )
        assert violations == []

    def test_attack_namespace_is_registered_at_runtime(self):
        # The attack engine's probes (attack.enum.*, attack.beam.*,
        # attack.masks.*, attack.sample.*, attack.simulate.*) ride on
        # the central registration in repro.obs.
        from repro import obs
        assert "attack" in obs.registered_namespaces()

    def test_incr_many_tuples_are_judged(self, tmp_path):
        # The engine flushes counters in incr_many batches; each
        # tuple's name literal is still under FPM014's jurisdiction.
        violations = lint_project(
            tmp_path,
            {
                "probes.py": """
                    from repro import obs

                    obs.register_namespace("attack")


                    def flush(telemetry, stats):
                        telemetry.incr_many([
                            ("attack.enum.yields", stats),
                            ("attack.beam.floor_dropped", stats),
                            ("rogue.counter", stats),
                        ])
                """
            },
            select=["FPM014"],
        )
        assert len(violations) == 1
        assert "rogue" in violations[0].message


METER_FIXTURE = """
    from repro.meters.registry import Capability, register_meter


    class MeterBase:
        def probability(self, password: str) -> float:
            return 0.0

        def from_dict(self, data):
            return None


    @register_meter(
        "toyfixture",
        capabilities=(
            Capability.UPDATABLE,
            Capability.PERSISTABLE,
        ),
    )
    class FixtureMeter(MeterBase):
        def to_dict(self):
            return {}
"""


class TestCapabilityConformance:
    """FPM015: declared capabilities must be statically backed."""

    def test_missing_method_is_caught(self, tmp_path):
        # The MRO terminates locally (MeterBase -> object), so the
        # missing update() is provable; the persistence methods are
        # defined, one on the class and one on its base.
        violations = lint_project(
            tmp_path, {"meter.py": METER_FIXTURE}, select=["FPM015"]
        )
        assert [v.rule_id for v in violations] == ["FPM015"]
        assert "update" in violations[0].message

    def test_inherited_methods_satisfy_capabilities(self, tmp_path):
        # update() and from_dict() on the base class: conformance is
        # resolved over the static MRO, not just the registered class
        # body.
        fixed = METER_FIXTURE.replace(
            "def from_dict(self, data):\n"
            "            return None",
            "def from_dict(self, data):\n"
            "            return None\n\n"
            "        def update(self, password, count=1):\n"
            "            return None",
        )
        violations = lint_project(
            tmp_path, {"meter.py": fixed}, select=["FPM015"]
        )
        assert violations == []

    def test_unresolvable_base_is_lenient_for_methods(self, tmp_path):
        # When the MRO escapes the index (repro.meters.base is not
        # part of the linted tree), absence of a method is not
        # provable and must not be reported.
        external = METER_FIXTURE.replace(
            "from repro.meters.registry import",
            "from repro.meters.base import Meter\n"
            "    from repro.meters.registry import",
        ).replace("class MeterBase:", "class MeterBase(Meter):")
        violations = lint_project(
            tmp_path, {"meter.py": external}, select=["FPM015"]
        )
        assert violations == []


class TestIndexBackedDispatch:
    """FPM010/FPM011 upgrade from path heuristics to index queries."""

    def test_registered_fixture_class_joins_fpm010(self, tmp_path):
        violations = lint_project(
            tmp_path,
            {
                "meter.py": METER_FIXTURE.replace(
                    "Capability.UPDATABLE,\n"
                    "            Capability.PERSISTABLE,",
                    "Capability.PERSISTABLE,",
                ),
                "consumer.py": """
                    def dispatch(meter, kind):
                        from meter import FixtureMeter

                        if isinstance(meter, FixtureMeter):
                            return 1
                        return kind == "toyfixture"
                """,
            },
            select=["FPM010"],
        )
        assert [v.rule_id for v in violations] == ["FPM010", "FPM010"]
        assert all(v.path.endswith("consumer.py") for v in violations)

    def test_epoch_guarded_module_is_exempt_from_fpm011(self, tmp_path):
        violations = lint_project(
            tmp_path,
            {
                # The module that defines the epoch-guarded grammar may
                # touch its own tables; outside modules may not.
                "toygrammar.py": GRAMMAR_FIXTURE + textwrap.indent(
                    textwrap.dedent("""
                        def inspect(self, key):
                            return self.structures.probability(key)
                    """),
                    "        ",
                ),
                "outside.py": """
                    def peek(grammar, key):
                        return grammar.structures.probability(key)
                """,
            },
            select=["FPM011"],
        )
        assert [
            (v.rule_id, v.path.rsplit("/", 1)[-1]) for v in violations
        ] == [("FPM011", "outside.py")]


class TestSuppressions:
    def test_justified_suppression_silences_the_line(self):
        assert rule_ids_of("""
            def f():
                try:
                    return 1
                except:  # lint-ok: FPM006 -- exercised by a fixture
                    return 0
        """, select=["FPM006"]) == []

    def test_suppression_without_reason_is_reported(self):
        ids = rule_ids_of("""
            def f():
                try:
                    return 1
                except:  # lint-ok: FPM006
                    return 0
        """, select=["FPM006"])
        assert ids == ["FPM000", "FPM006"]

    def test_suppression_of_unknown_rule_is_reported(self):
        ids = rule_ids_of("""
            x = 1  # lint-ok: FPM999 -- no such rule
        """)
        assert "FPM000" in ids

    def test_suppression_only_covers_its_own_rule(self):
        ids = rule_ids_of("""
            def f():
                try:
                    return 1
                except:  # lint-ok: FPM001 -- wrong rule id
                    return 0
        """)
        assert "FPM006" in ids

    def test_marker_inside_string_is_not_a_suppression(self):
        ids = rule_ids_of("""
            def f():
                marker = "# lint-ok: FPM006 -- not a comment"
                try:
                    return marker
                except:
                    return 0
        """, select=["FPM006"])
        assert ids == ["FPM006"]


class TestSelectAndSyntax:
    def test_select_restricts_to_one_rule(self):
        snippet = textwrap.dedent("""
            def f(a=[]):
                try:
                    return a
                except:
                    return None
        """)
        violations = check_source(snippet, select=["FPM007"])
        assert {v.rule_id for v in violations} == {"FPM007"}

    def test_unknown_select_raises(self):
        with pytest.raises(KeyError):
            check_source("x = 1", select=["FPM777"])

    def test_unknown_select_names_rule_and_lists_valid_ids(self):
        from repro.analysis import UnknownRuleError

        with pytest.raises(UnknownRuleError) as excinfo:
            check_source("x = 1", select=["FPM999"])
        message = str(excinfo.value)
        assert "FPM999" in message
        assert "FPM001" in message and "FPM015" in message

    def test_unknown_select_is_usage_error_not_traceback(
        self, tmp_path, capsys
    ):
        # Satellite: ``--select FPM999`` must exit 2 with the valid-id
        # list on stderr — validated before any filesystem access.
        path = tmp_path / "clean.py"
        path.write_text("VALUE: int = 1\n")
        assert run([str(path)], select="FPM999") == 2
        err = capsys.readouterr().err
        assert "FPM999" in err and "FPM001" in err
        # Even over a missing tree: validation happens first.
        assert run([str(tmp_path / "absent")], select="FPM999") == 2

    def test_unknown_select_via_cli(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("VALUE: int = 1\n")
        code = cli_main(["lint", "--select", "FPM999", str(path)])
        assert code == 2
        assert "FPM999" in capsys.readouterr().err

    def test_syntax_error_is_reported_not_raised(self):
        violations = check_source("def broken(:\n")
        assert [v.rule_id for v in violations] == ["FPM900"]


FIXTURE = textwrap.dedent("""\
    def public(value):
        try:
            return value
        except:
            return None
""")


class TestReporters:
    def test_text_report_golden(self, tmp_path):
        path = tmp_path / "fixture.py"
        path.write_text(FIXTURE)
        stream = io.StringIO()
        code = run([str(path)], output_format="text", stream=stream)
        assert code == 1
        assert stream.getvalue() == (
            f"{path}:1:1: FPM008 public function public() is missing "
            "a return annotation\n"
            f"{path}:1:1: FPM008 public function public() is missing "
            "parameter annotations: value\n"
            f"{path}:4:5: FPM006 bare except catches "
            "SystemExit/KeyboardInterrupt too; name the exceptions "
            "this path can actually handle\n"
            "3 violation(s) in 1 file checked\n"
        )

    def test_text_report_clean_file(self, tmp_path):
        path = tmp_path / "clean.py"
        path.write_text("VALUE: int = 1\n")
        stream = io.StringIO()
        code = run([str(path)], output_format="text", stream=stream)
        assert code == 0
        assert stream.getvalue() == "clean: 1 file checked\n"

    def test_json_report_structure(self, tmp_path):
        path = tmp_path / "fixture.py"
        path.write_text(FIXTURE)
        stream = io.StringIO()
        code = run([str(path)], output_format="json", stream=stream)
        assert code == 1
        payload = json.loads(stream.getvalue())
        assert payload["files_checked"] == 1
        assert payload["violation_count"] == 3
        assert payload["counts_by_rule"] == {"FPM006": 1, "FPM008": 2}
        first = payload["violations"][0]
        assert set(first) == {"path", "line", "column", "rule_id",
                              "message"}

    def test_json_report_round_trips(self, tmp_path):
        # The JSON envelope must carry exactly what lint_paths found.
        path = tmp_path / "fixture.py"
        path.write_text(FIXTURE)
        stream = io.StringIO()
        run([str(path)], output_format="json", stream=stream)
        payload = json.loads(stream.getvalue())
        violations, files_checked = lint_paths([str(path)])
        assert payload["files_checked"] == files_checked
        assert payload["violations"] == [
            {
                "path": v.path,
                "line": v.line,
                "column": v.column,
                "rule_id": v.rule_id,
                "message": v.message,
            }
            for v in violations
        ]

    def test_sarif_report_schema_shape(self, tmp_path):
        path = tmp_path / "fixture.py"
        path.write_text(FIXTURE)
        stream = io.StringIO()
        code = run([str(path)], output_format="sarif", stream=stream)
        assert code == 1
        document = json.loads(stream.getvalue())
        assert document["version"] == "2.1.0"
        assert document["$schema"].endswith("sarif-schema-2.1.0.json")
        (sarif_run,) = document["runs"]
        driver = sarif_run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert "informationUri" in driver
        rule_ids = [rule["id"] for rule in driver["rules"]]
        # Registry rules plus the two framework pseudo-rules.
        assert rule_ids[: len(all_rules())] == list(all_rules())
        assert "FPM000" in rule_ids and "FPM900" in rule_ids
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
            assert rule["defaultConfiguration"] == {"level": "error"}
        assert sarif_run["columnKind"] == "unicodeCodePoints"
        assert len(sarif_run["results"]) == 3
        for result in sarif_run["results"]:
            assert result["level"] == "error"
            assert result["message"]["text"]
            assert rule_ids[result["ruleIndex"]] == result["ruleId"]
            (location,) = result["locations"]
            physical = location["physicalLocation"]
            assert physical["artifactLocation"]["uri"]
            assert "\\" not in physical["artifactLocation"]["uri"]
            region = physical["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1

    def test_sarif_clean_run_has_no_results(self, tmp_path):
        path = tmp_path / "clean.py"
        path.write_text("VALUE: int = 1\n")
        stream = io.StringIO()
        assert run(
            [str(path)], output_format="sarif", stream=stream
        ) == 0
        document = json.loads(stream.getvalue())
        assert document["runs"][0]["results"] == []

    def test_markdown_rule_table_lists_every_rule(self, capsys):
        code = cli_main(["lint", "--list-rules", "--format", "markdown"])
        assert code == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert lines[0] == "| Rule | Name | Enforces |"
        body = lines[2:]
        assert [row.split("|")[1].strip() for row in body] == list(
            all_rules()
        )

    def test_markdown_without_list_rules_is_usage_error(
        self, tmp_path, capsys
    ):
        path = tmp_path / "clean.py"
        path.write_text("VALUE: int = 1\n")
        code = cli_main(["lint", "--format", "markdown", str(path)])
        assert code == 2
        assert "markdown" in capsys.readouterr().err

    def test_unknown_format_is_usage_error(self, tmp_path):
        path = tmp_path / "clean.py"
        path.write_text("VALUE: int = 1\n")
        assert run([str(path)], output_format="xml") == 2

    def test_missing_path_is_usage_error(self, tmp_path):
        assert run([str(tmp_path / "absent")]) == 2


class TestCli:
    def test_lint_subcommand_reports_and_fails(self, tmp_path, capsys):
        path = tmp_path / "fixture.py"
        path.write_text(FIXTURE)
        code = cli_main(["lint", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert f"{path}:4:5: FPM006" in out

    def test_lint_subcommand_clean_exit(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("VALUE: int = 1\n")
        assert cli_main(["lint", str(path)]) == 0
        assert "clean: 1 file checked" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in all_rules():
            assert rule_id in out


class TestParallelPass:
    """``--jobs`` fans pass 2 over a pool; the report is the serial one."""

    FILES = {
        "alpha.py": 'VALUE: int = 1\n',
        "beta.py": FIXTURE,
    }

    def test_parallel_run_matches_serial(self, tmp_path):
        for name, source in self.FILES.items():
            (tmp_path / name).write_text(source)
        serial, _ = lint_paths([str(tmp_path)])
        parallel, _ = lint_paths([str(tmp_path)], jobs=2)
        assert parallel == serial


class TestRepoIsClean:
    def test_src_repro_is_lint_clean(self):
        violations, files_checked = lint_paths([str(SRC_ROOT)])
        assert files_checked > 60
        assert violations == []

    def test_whole_repo_is_lint_clean_under_profiles(self):
        # The extended surface lints under the relaxed profile for
        # tests/benchmarks/tools/examples and strict for src.
        repo = SRC_ROOT.parents[1]
        targets = [
            str(repo / name)
            for name in ("src/repro", "tests", "benchmarks", "tools",
                         "examples")
            if (repo / name).exists()
        ]
        violations, files_checked = lint_paths(targets)
        assert files_checked > 150
        assert violations == []

    def test_repo_suppressions_all_carry_justifications(self):
        # apply_suppressions already enforces this (FPM000), but assert
        # it end-to-end so a framework regression cannot mask it.
        from repro.analysis import find_suppressions
        for path in sorted(SRC_ROOT.rglob("*.py")):
            for suppression in find_suppressions(path.read_text()):
                assert suppression.reason, (
                    f"{path}:{suppression.line} suppression has no "
                    "justification"
                )
