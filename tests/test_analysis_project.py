"""Tests for the whole-program pass (repro.analysis.project).

The :class:`ProjectIndex` is pass 1 of the two-pass linter: a symbol
table, import graph, approximate call graph and multiprocessing-use
map over every discovered file.  These tests pin the index internals
the cross-module rules (FPM012-015) lean on — module naming, symbol
resolution, static MRO walks, the worker-reachability closure — plus
the digest the incremental cache keys on.
"""

from __future__ import annotations

import ast
import pathlib
import pickle
import textwrap

from repro.analysis.project import (
    GRAMMAR_TABLE_ATTRIBUTES,
    build_project_index,
    module_name_for_path,
    scan_module,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def scan(source, module="pkg.mod", path="pkg/mod.py"):
    tree = ast.parse(textwrap.dedent(source))
    return scan_module(module, path, tree)


def index_of(files):
    """Build an index from ``path -> source`` pairs."""
    return build_project_index(
        [(path, textwrap.dedent(source)) for path, source in files.items()]
    )


class TestModuleNaming:
    def test_src_layout_maps_to_package(self):
        assert module_name_for_path(
            "src/repro/core/grammar.py"
        ) == "repro.core.grammar"
        assert module_name_for_path(
            "/abs/checkout/src/repro/cli.py"
        ) == "repro.cli"

    def test_package_init_names_the_package(self):
        assert module_name_for_path(
            "src/repro/obs/__init__.py"
        ) == "repro.obs"

    def test_bare_roots_keep_their_prefix(self):
        assert module_name_for_path(
            "tests/test_meter.py"
        ) == "tests.test_meter"
        assert module_name_for_path(
            "benchmarks/test_timing.py"
        ) == "benchmarks.test_timing"

    def test_everything_else_falls_back_to_stem(self):
        assert module_name_for_path("/tmp/scratch/demo.py") == "demo"


class TestModuleScanner:
    def test_imports_aliases_and_relative_forms(self):
        info = scan(
            """
            import multiprocessing
            import numpy as np
            from repro.core.grammar import FuzzyGrammar as Grammar
            from . import sibling
            from .helpers import tool
            """,
            module="repro.pkg.mod",
        )
        imports = info.import_map()
        assert imports["multiprocessing"] == "multiprocessing"
        assert imports["np"] == "numpy"
        assert imports["Grammar"] == "repro.core.grammar.FuzzyGrammar"
        assert imports["sibling"] == "repro.pkg.sibling"
        assert imports["tool"] == "repro.pkg.helpers.tool"

    def test_functions_record_calls_globals_and_nesting(self):
        info = scan(
            """
            _STATE = None

            def outer(x):
                def inner(y):
                    return y
                return inner(helper(x))

            def helper(x):
                global _STATE
                _STATE = x
                return x
            """
        )
        functions = info.function_map()
        assert set(functions) == {"outer", "outer.inner", "helper"}
        assert functions["outer.inner"].is_nested
        assert not functions["helper"].is_nested
        assert functions["helper"].global_names == ("_STATE",)
        assert set(functions["outer"].calls) >= {"inner", "helper"}
        assert info.module_globals == ("_STATE",)

    def test_class_surface_and_meter_registration(self):
        info = scan(
            """
            from repro.meters.registry import Capability, register_meter

            @register_meter("toy", capabilities=(Capability.TRAINABLE,))
            class Toy(Base):
                def __init__(self):
                    self._epoch = 0
                    self.structures = {}

                def train(self, data):
                    return self
            """
        )
        (cls,) = info.classes
        assert cls.bases == ("Base",)
        assert set(cls.methods) == {"__init__", "train"}
        assert set(cls.init_attrs) == {"_epoch", "structures"}
        assert cls.meter_registration is not None
        assert cls.meter_registration.kind == "toy"
        assert cls.meter_registration.capabilities == ("TRAINABLE",)

    def test_worker_uses_and_namespaces(self):
        info = scan(
            """
            import multiprocessing
            from repro import obs

            obs.register_namespace("toys")

            def launch(chunks):
                with multiprocessing.Pool(
                    2, initializer=setup, initargs=()
                ) as pool:
                    pool.imap(work, chunks)
                    pool.apply_async(work, (chunks,))
            """
        )
        roles = sorted(
            (use.role, use.target) for use in info.worker_uses
        )
        assert roles == [
            ("initializer", "setup"),
            ("task", "work"),
            ("task", "work"),
        ]
        assert info.namespaces == ("toys",)


PROJECT = {
    "src/pkg/base.py": """
        class Base:
            def shared(self):
                return 0
    """,
    "src/pkg/work.py": """
        import multiprocessing
        from pkg.base import Base

        _TABLE = None


        def _worker_init_table(table):
            global _TABLE
            _TABLE = table


        def task(chunk):
            return helper(chunk)


        def helper(chunk):
            return chunk


        def untouched(chunk):
            return chunk


        class Runner(Base):
            def dispatch(self):
                return self.shared()


        def launch(chunks):
            with multiprocessing.Pool(
                2, initializer=_worker_init_table, initargs=(None,)
            ) as pool:
                return pool.map(task, chunks)
    """,
}


class TestProjectIndex:
    def test_symbol_resolution_prefers_local_definitions(self):
        index = index_of(PROJECT)
        work = index.modules["pkg.work"]
        assert index.resolve_symbol(work, "task") == "pkg.work.task"
        assert index.resolve_symbol(work, "Base") == "pkg.base.Base"
        assert index.resolve_symbol(work, "unknown_name") is None

    def test_find_function_handles_methods(self):
        index = index_of(PROJECT)
        assert index.find_function("pkg.work.task").name == "task"
        assert index.find_function(
            "pkg.work.Runner.dispatch"
        ).owner_class == "Runner"
        assert index.find_function("pkg.work.missing") is None

    def test_static_mro_and_method_lookup(self):
        index = index_of(PROJECT)
        chain, complete = index.class_mro("pkg.work.Runner")
        assert complete
        assert [cls.name for _, cls in chain] == ["Runner", "Base"]
        found, _ = index.find_method("pkg.work.Runner", "shared")
        assert found is not None and found.owner_class == "Base"

    def test_unresolvable_base_marks_mro_incomplete(self):
        index = index_of(
            {
                "src/pkg/orphan.py": """
                    from elsewhere import Alien

                    class Orphan(Alien):
                        pass
                """
            }
        )
        _, complete = index.class_mro("pkg.orphan.Orphan")
        assert not complete

    def test_self_calls_resolve_through_the_mro(self):
        index = index_of(PROJECT)
        work = index.modules["pkg.work"]
        dispatch = work.function_map()["Runner.dispatch"]
        assert index.resolve_call(
            work, dispatch, "self.shared"
        ) == "pkg.base.Base.shared"

    def test_worker_closure_and_blessing(self):
        index = index_of(PROJECT)
        assert "pkg.work.task" in index.worker_entrypoints
        assert (
            "pkg.work._worker_init_table" in index.blessed_initializers
        )
        # task -> helper is in the closure; untouched is not.
        assert "pkg.work.helper" in index.worker_reachable
        assert "pkg.work.untouched" not in index.worker_reachable

    def test_epoch_guarded_classes(self):
        index = index_of(
            {
                "src/pkg/grammar.py": """
                    class Guarded:
                        def __init__(self):
                            self._epoch = 0
                            self.terminals = {}

                    class Unguarded:
                        def __init__(self):
                            self.terminals = {}
                """
            }
        )
        assert index.epoch_guarded_classes == {"pkg.grammar.Guarded"}

    def test_digest_tracks_semantic_content_only(self):
        base = {"src/pkg/a.py": "def f(x):\n    return x\n"}
        same = {
            "src/pkg/a.py": "def f(x):\n    # comment\n    return x\n"
        }
        different = {"src/pkg/a.py": "def g(x):\n    return x\n"}
        digest = build_project_index(list(base.items())).digest
        assert digest
        assert (
            build_project_index(list(same.items())).digest == digest
        )
        assert (
            build_project_index(list(different.items())).digest != digest
        )

    def test_index_is_picklable(self):
        # The parallel pass ships the index to pool workers.
        index = index_of(PROJECT)
        clone = pickle.loads(pickle.dumps(index))
        assert clone.worker_reachable == index.worker_reachable
        assert clone.modules.keys() == index.modules.keys()


class TestIndexOverTheRealRepo:
    def test_real_pool_surface_is_recognised(self):
        files = []
        src = REPO_ROOT / "src" / "repro"
        for path in sorted(src.rglob("*.py")):
            files.append((str(path), path.read_text()))
        index = build_project_index(files)
        blessed = {
            name.rsplit(".", 1)[-1]
            for name in index.blessed_initializers
        }
        assert any(
            name.startswith("_worker_init") or
            name.startswith("_score_worker")
            for name in blessed
        )
        assert index.worker_entrypoints
        assert index.worker_reachable >= index.worker_entrypoints
        # The central namespace registrations in repro.obs.
        assert {
            "meter", "train", "lint", "experiment",
        } <= index.registered_namespaces
        assert "repro.core.grammar.FuzzyGrammar" in (
            index.epoch_guarded_classes
        )

    def test_grammar_table_attribute_set_matches_grammar(self):
        # The shared constant must stay in sync with FuzzyGrammar's
        # actual count tables (FPM011 and FPM013 both key on it).
        from repro.core.grammar import FuzzyGrammar

        grammar = FuzzyGrammar()
        for attribute in GRAMMAR_TABLE_ATTRIBUTES:
            assert hasattr(grammar, attribute), attribute
