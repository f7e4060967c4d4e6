"""Pass 1 of the two-pass analyzer: the whole-program ``ProjectIndex``.

The per-file rules (FPM001..FPM011) can only see one module at a time,
but the invariants that actually break production — fork-time global
writes, stale :class:`~repro.core.frozen.FrozenGrammar` snapshots,
capability declarations with no backing method — span modules and
process boundaries.  :func:`build_project_index` walks every file once
and distils what the cross-module rules (:class:`ProjectRule`
subclasses) need:

* a module/symbol table and import graph (``ModuleInfo.imports`` maps
  each local name to the qualified symbol it denotes);
* an approximate call graph (``FunctionInfo.calls`` records call
  targets as written; :meth:`ProjectIndex.resolve_call` qualifies
  them);
* the multiprocessing surface: worker task entrypoints discovered
  from ``pool.imap``/``apply_async``/``Process(target=...)`` call
  sites, pool ``initializer=`` functions, and the transitive
  worker-reachable closure over the call graph;
* every ``@register_meter`` declaration with its capability list and
  the static class hierarchy behind it;
* every ``obs.register_namespace("...")`` literal (the telemetry
  probe-name authority for FPM014);
* which classes are *epoch guarded* — their ``__init__`` assigns both
  ``_epoch`` and at least one grammar count table, so mutations must
  bump the epoch (FPM013).

Everything stored here is built from plain tuples/dicts so the index
pickles cleanly into the parallel file pass.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

#: Grammar count-table attributes (paper Table round-up: base structure
#: counts plus the five fuzzing rule families).  Shared by FPM011
#: (reach-through reads) and FPM013 (epoch discipline on writes).
GRAMMAR_TABLE_ATTRIBUTES = frozenset(
    {"structures", "terminals", "capitalization", "leet", "reverse", "allcaps"}
)

#: Pool/executor methods whose first argument runs in a worker process.
POOL_TASK_METHODS = frozenset(
    {
        "map",
        "imap",
        "imap_unordered",
        "map_async",
        "starmap",
        "starmap_async",
        "apply",
        "apply_async",
        "submit",
    }
)

#: Constructors that spawn worker processes.
POOL_CONSTRUCTORS = frozenset({"Pool", "Process", "ProcessPoolExecutor"})

#: Function-name prefix that blesses a fork-time initializer even when
#: the ``initializer=`` call site is in another module.
WORKER_INIT_PREFIX = "_worker_init"

#: Top-level directories that map straight to module prefixes when the
#: file is not under ``src/``.
_BARE_PACKAGE_ROOTS = frozenset({"tests", "benchmarks", "tools", "examples"})


def module_name_for_path(path: str) -> str:
    """Infer a dotted module name from a repository-relative path.

    ``src/repro/core/grammar.py`` → ``repro.core.grammar``;
    ``tests/test_meter.py`` → ``tests.test_meter``; anything else
    falls back to the stem so synthetic paths still get unique names.
    """
    normalized = path.replace(os.sep, "/")
    parts = [part for part in normalized.split("/") if part not in ("", ".")]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    else:
        for index, part in enumerate(parts):
            if part in _BARE_PACKAGE_ROOTS:
                parts = parts[index:]
                break
        else:
            parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else path


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _annotation_text(node: Optional[ast.AST]) -> Optional[str]:
    """The dotted core of an annotation (``Optional[X]`` → ``X``)."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        if text.startswith("Optional[") and text.endswith("]"):
            text = text[len("Optional["):-1].strip()
        return text.strip("\"'") or None
    if isinstance(node, (ast.Name, ast.Attribute)):
        return _dotted(node)
    if isinstance(node, ast.Subscript):
        head = _dotted(node.value)
        if head in ("Optional", "typing.Optional"):
            inner = node.slice
            if isinstance(inner, ast.Index):  # pragma: no cover - py3.8
                inner = inner.value  # type: ignore[attr-defined]
            return _annotation_text(inner)
    return None


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method as seen by the static pass."""

    qualname: str  #: ``outer.inner`` / ``Class.method`` within the module
    name: str
    lineno: int
    #: ``(param, dotted annotation)`` pairs, stripped of ``Optional``.
    annotations: Tuple[Tuple[str, str], ...]
    #: Names declared ``global`` inside the body, with the statement line.
    global_names: Tuple[str, ...]
    global_lineno: int
    #: Call targets as written (``foo``, ``self.bar``, ``mod.fn``).
    calls: Tuple[str, ...]
    owner_class: Optional[str]  #: simple class name when this is a method
    is_nested: bool


@dataclass(frozen=True)
class MeterRegistration:
    """One ``@register_meter(...)`` decoration."""

    kind: Optional[str]
    capabilities: Tuple[str, ...]  #: ``Capability`` member names, as written
    lineno: int


@dataclass(frozen=True)
class ClassInfo:
    """One class with its static surface."""

    name: str
    lineno: int
    bases: Tuple[str, ...]  #: as written (``ProbabilisticMeter``, ``abc.ABC``)
    methods: Tuple[str, ...]  #: direct method names
    init_attrs: Tuple[str, ...]  #: ``self.X`` assigned in ``__init__``
    meter_registration: Optional[MeterRegistration]


@dataclass(frozen=True)
class WorkerUse:
    """One call site handing a function to another process."""

    role: str  #: ``task`` or ``initializer``
    target: Optional[str]  #: dotted expression, ``None`` for a lambda
    lineno: int
    column: int


@dataclass(frozen=True)
class ModuleInfo:
    """Everything the cross-module rules need from one file."""

    module: str
    path: str
    imports: Tuple[Tuple[str, str], ...]  #: local name → qualified symbol
    functions: Tuple[FunctionInfo, ...]
    classes: Tuple[ClassInfo, ...]
    module_globals: Tuple[str, ...]
    worker_uses: Tuple[WorkerUse, ...]
    namespaces: Tuple[str, ...]  #: ``register_namespace`` literals

    def import_map(self) -> Dict[str, str]:
        return dict(self.imports)

    def function_map(self) -> Dict[str, FunctionInfo]:
        return {info.qualname: info for info in self.functions}

    def class_map(self) -> Dict[str, ClassInfo]:
        return {info.name: info for info in self.classes}


class _ModuleScanner(ast.NodeVisitor):
    """Single-walk collector feeding one :class:`ModuleInfo`."""

    def __init__(self, module: str) -> None:
        self.module = module
        self.imports: Dict[str, str] = {}
        self.functions: List[FunctionInfo] = []
        self.classes: List[ClassInfo] = []
        self.module_globals: List[str] = []
        self.worker_uses: List[WorkerUse] = []
        self.namespaces: List[str] = []
        self._scope: List[str] = []
        self._class_stack: List[str] = []

    # --- imports -------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".", 1)[0]
            qualified = alias.name if alias.asname else local
            self.imports[local] = qualified

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        package = self.module.split(".")
        if node.level:
            # Relative import: peel ``level`` components off this module.
            package = package[: max(len(package) - node.level, 0)]
            base = ".".join(package + ([node.module] if node.module else []))
        else:
            base = node.module or ""
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.imports[local] = f"{base}.{alias.name}" if base else alias.name

    # --- module globals ------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._scope:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.module_globals.append(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if not self._scope and isinstance(node.target, ast.Name):
            self.module_globals.append(node.target.id)
        self.generic_visit(node)

    # --- classes and functions -----------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        registration = self._meter_registration(node)
        methods = tuple(
            child.name
            for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        init_attrs: List[str] = []
        for child in node.body:
            if isinstance(child, ast.FunctionDef) and child.name == "__init__":
                for stmt in ast.walk(child):
                    targets: List[ast.expr] = []
                    if isinstance(stmt, ast.Assign):
                        targets = list(stmt.targets)
                    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                        targets = [stmt.target]
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            init_attrs.append(target.attr)
        bases = tuple(
            dotted for dotted in (_dotted(base) for base in node.bases)
            if dotted is not None
        )
        self.classes.append(
            ClassInfo(
                name=node.name,
                lineno=node.lineno,
                bases=bases,
                methods=methods,
                init_attrs=tuple(dict.fromkeys(init_attrs)),
                meter_registration=registration,
            )
        )
        self._scope.append(node.name)
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()
        self._scope.pop()

    def _meter_registration(
        self, node: ast.ClassDef
    ) -> Optional[MeterRegistration]:
        for decorator in node.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            if _dotted(decorator.func) not in (
                "register_meter",
                "registry.register_meter",
            ):
                continue
            kind: Optional[str] = None
            if decorator.args and isinstance(decorator.args[0], ast.Constant):
                value = decorator.args[0].value
                kind = value if isinstance(value, str) else None
            capabilities: List[str] = []
            for keyword in decorator.keywords:
                if keyword.arg == "kind" and isinstance(
                    keyword.value, ast.Constant
                ):
                    kind = keyword.value.value
                if keyword.arg != "capabilities":
                    continue
                for element in ast.walk(keyword.value):
                    dotted = (
                        _dotted(element)
                        if isinstance(element, ast.Attribute)
                        else None
                    )
                    if dotted and dotted.split(".")[-2:-1] == ["Capability"]:
                        capabilities.append(dotted.split(".")[-1])
            return MeterRegistration(
                kind=kind,
                capabilities=tuple(dict.fromkeys(capabilities)),
                lineno=node.lineno,
            )
        return None

    def _visit_function(
        self, node: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> None:
        qualname = ".".join(self._scope + [node.name])
        owner = self._class_stack[-1] if (
            self._class_stack and self._scope
            and self._scope[-1] == self._class_stack[-1]
        ) else None
        args = node.args
        ordered = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        annotations = tuple(
            (arg.arg, text)
            for arg in ordered
            for text in [_annotation_text(arg.annotation)]
            if text is not None
        )
        global_names: List[str] = []
        global_lineno = node.lineno
        calls: List[str] = []
        for child in ast.walk(node):
            if isinstance(child, ast.Global):
                if not global_names:
                    global_lineno = child.lineno
                global_names.extend(child.names)
            elif isinstance(child, ast.Call):
                dotted = _dotted(child.func)
                if dotted is not None:
                    calls.append(dotted)
        is_nested = bool(self._scope) and owner is None
        self.functions.append(
            FunctionInfo(
                qualname=qualname,
                name=node.name,
                lineno=node.lineno,
                annotations=annotations,
                global_names=tuple(dict.fromkeys(global_names)),
                global_lineno=global_lineno,
                calls=tuple(dict.fromkeys(calls)),
                owner_class=owner,
                is_nested=is_nested,
            )
        )
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # --- worker pools and namespaces -----------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        dotted = _dotted(func)
        if dotted is not None and dotted.split(".")[-1] == "register_namespace":
            if node.args and isinstance(node.args[0], ast.Constant):
                value = node.args[0].value
                if isinstance(value, str):
                    self.namespaces.append(value)
        if (
            isinstance(func, ast.Attribute)
            and func.attr in POOL_TASK_METHODS
            and node.args
        ):
            self._record_worker(node.args[0], "task")
        if dotted is not None and dotted.split(".")[-1] in POOL_CONSTRUCTORS:
            for keyword in node.keywords:
                if keyword.arg == "initializer":
                    self._record_worker(keyword.value, "initializer")
                if keyword.arg == "target":
                    self._record_worker(keyword.value, "task")
        self.generic_visit(node)

    def _record_worker(self, target: ast.expr, role: str) -> None:
        # A literal first argument is data, not a callable: the call
        # is some other .submit()/.map() (an async batcher, a bound
        # collection), not a process-pool dispatch.
        if isinstance(target, ast.Constant):
            return
        self.worker_uses.append(
            WorkerUse(
                role=role,
                target=_dotted(target),
                lineno=target.lineno,
                column=target.col_offset + 1,
            )
        )


def scan_module(module: str, path: str, tree: ast.Module) -> ModuleInfo:
    """Build one :class:`ModuleInfo` from a parsed file."""
    scanner = _ModuleScanner(module)
    scanner.visit(tree)
    return ModuleInfo(
        module=module,
        path=path,
        imports=tuple(sorted(scanner.imports.items())),
        functions=tuple(scanner.functions),
        classes=tuple(scanner.classes),
        module_globals=tuple(dict.fromkeys(scanner.module_globals)),
        worker_uses=tuple(scanner.worker_uses),
        namespaces=tuple(dict.fromkeys(scanner.namespaces)),
    )


#: Base classes treated as method-free terminals during static MRO
#: walks (their abstract surface is enforced at runtime by ``abc``).
_EXTERNAL_TERMINAL_BASES = frozenset(
    {"abc.ABC", "ABC", "object", "Protocol", "Generic", "Enum", "enum.Enum"}
)


@dataclass
class ProjectIndex:
    """The pass-1 output handed to every :class:`ProjectRule`.

    ``modules`` is keyed by dotted module name; ``by_path`` maps the
    exact path string a file was linted under back to its module so a
    rule can find "its own" entry from ``LintContext.path``.
    """

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    by_path: Dict[str, str] = field(default_factory=dict)

    # Derived (finalize() fills these in).
    worker_entrypoints: FrozenSet[str] = frozenset()
    blessed_initializers: FrozenSet[str] = frozenset()
    worker_reachable: FrozenSet[str] = frozenset()
    epoch_guarded_classes: FrozenSet[str] = frozenset()
    registered_namespaces: FrozenSet[str] = frozenset()

    # --- lookups -------------------------------------------------------

    def module_for_path(self, path: str) -> Optional[ModuleInfo]:
        name = self.by_path.get(path)
        return self.modules.get(name) if name else None

    def resolve_symbol(self, module: ModuleInfo, name: str) -> Optional[str]:
        """Qualify a dotted name as written inside ``module``.

        Local definitions shadow imports, matching Python scoping for
        module-level names.  Returns ``None`` for names that cannot be
        resolved statically (locals, attribute chains on instances).
        """
        head, _, rest = name.partition(".")
        imports = module.import_map()
        local_functions = {
            info.name for info in module.functions if "." not in info.qualname
        }
        local_classes = {info.name for info in module.classes}
        if head in local_functions or head in local_classes:
            qualified = f"{module.module}.{head}"
        elif head in imports:
            qualified = imports[head]
        else:
            return None
        return f"{qualified}.{rest}" if rest else qualified

    def find_function(self, qualified: str) -> Optional[FunctionInfo]:
        """Look up ``package.module.func`` / ``...Class.method``."""
        for split in range(qualified.count(".") or 1, 0, -1):
            parts = qualified.split(".")
            module_name = ".".join(parts[:split])
            info = self.modules.get(module_name)
            if info is None:
                continue
            qualname = ".".join(parts[split:])
            found = info.function_map().get(qualname)
            if found is not None:
                return found
        return None

    def find_class(self, qualified: str) -> Optional[Tuple[ModuleInfo, ClassInfo]]:
        module_name, _, class_name = qualified.rpartition(".")
        info = self.modules.get(module_name)
        if info is None:
            return None
        cls = info.class_map().get(class_name)
        return (info, cls) if cls is not None else None

    def resolve_class(self, module: ModuleInfo, name: str) -> Optional[str]:
        qualified = self.resolve_symbol(module, name)
        if qualified is not None and self.find_class(qualified) is not None:
            return qualified
        return None

    def class_mro(
        self, qualified: str
    ) -> Tuple[List[Tuple[ModuleInfo, ClassInfo]], bool]:
        """Static linearisation ``(chain, complete)``.

        ``complete`` is ``False`` when some base could not be resolved
        to an indexed class (and is not a known external terminal), in
        which case callers should be lenient about "missing" methods.
        """
        chain: List[Tuple[ModuleInfo, ClassInfo]] = []
        complete = True
        seen = set()
        stack = [qualified]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            found = self.find_class(current)
            if found is None:
                complete = False
                continue
            module, cls = found
            chain.append((module, cls))
            for base in cls.bases:
                if base in _EXTERNAL_TERMINAL_BASES:
                    continue
                resolved = self.resolve_symbol(module, base)
                if resolved is None:
                    complete = False
                else:
                    stack.append(resolved)
        return chain, complete

    def find_method(
        self, qualified_class: str, method: str
    ) -> Tuple[Optional[FunctionInfo], bool]:
        """First definition of ``method`` along the static MRO."""
        chain, complete = self.class_mro(qualified_class)
        for module, cls in chain:
            info = module.function_map().get(f"{cls.name}.{method}")
            if info is not None:
                return info, complete
        return None, complete

    def meter_registrations(
        self,
    ) -> List[Tuple[ModuleInfo, ClassInfo, MeterRegistration]]:
        found = []
        for module in self.modules.values():
            for cls in module.classes:
                if cls.meter_registration is not None:
                    found.append((module, cls, cls.meter_registration))
        return found

    # --- call-graph resolution -----------------------------------------

    def resolve_call(
        self, module: ModuleInfo, caller: FunctionInfo, target: str
    ) -> Optional[str]:
        """Qualify one recorded call target, or ``None`` if opaque."""
        head, _, rest = target.partition(".")
        if head in ("self", "cls") and caller.owner_class and rest:
            method = rest.split(".", 1)[0]
            owner = f"{module.module}.{caller.owner_class}"
            chain, _ = self.class_mro(owner)
            for base_module, base_cls in chain:
                if method in base_cls.methods:
                    return f"{base_module.module}.{base_cls.name}.{method}"
            return None
        return self.resolve_symbol(module, target)

    def _finalize(self) -> None:
        entrypoints = set()
        blessed = set()
        unresolved_tasks = []
        for module in self.modules.values():
            for use in module.worker_uses:
                if use.target is None:
                    unresolved_tasks.append((module, use))
                    continue
                qualified = self.resolve_symbol(module, use.target)
                if qualified is None:
                    continue
                if use.role == "initializer":
                    blessed.add(qualified)
                else:
                    entrypoints.add(qualified)
            for info in module.functions:
                if info.name.startswith(WORKER_INIT_PREFIX):
                    blessed.add(f"{module.module}.{info.qualname}")
        self.worker_entrypoints = frozenset(entrypoints)
        self.blessed_initializers = frozenset(blessed)

        # Transitive closure over the approximate call graph.  Blessed
        # initializers seed it too: what an initializer calls also runs
        # inside the worker process.
        reachable = set()
        frontier = list(entrypoints | blessed)
        while frontier:
            current = frontier.pop()
            if current in reachable:
                continue
            reachable.add(current)
            info = self.find_function(current)
            if info is None:
                continue
            owner_module_name = current[: -(len(info.qualname) + 1)]
            owner_module = self.modules.get(owner_module_name)
            if owner_module is None:
                continue
            for call in info.calls:
                resolved = self.resolve_call(owner_module, info, call)
                if resolved is not None and resolved not in reachable:
                    frontier.append(resolved)
        self.worker_reachable = frozenset(reachable)

        guarded = set()
        for module in self.modules.values():
            for cls in module.classes:
                attrs = set(cls.init_attrs)
                if "_epoch" in attrs and attrs & GRAMMAR_TABLE_ATTRIBUTES:
                    guarded.add(f"{module.module}.{cls.name}")
        self.epoch_guarded_classes = frozenset(guarded)

        namespaces = set()
        for module in self.modules.values():
            namespaces.update(module.namespaces)
        self.registered_namespaces = frozenset(namespaces)


def build_project_index(
    files: Sequence[Tuple[str, str]],
    trees: Optional[Dict[str, ast.Module]] = None,
) -> ProjectIndex:
    """Pass 1: scan ``(path, source)`` pairs into a finalized index.

    Files that do not parse are skipped here — the per-file pass
    reports them as FPM900, and a module the parser rejects cannot
    contribute symbols anyway.  ``trees`` lets the runner share parsed
    ASTs between the two passes.
    """
    index = ProjectIndex()
    for path, source in files:
        tree = trees.get(path) if trees else None
        if tree is None:
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError:
                continue
            if trees is not None:
                trees[path] = tree
        module = module_name_for_path(path)
        info = scan_module(module, path, tree)
        index.modules[module] = info
        index.by_path[path] = module
    index._finalize()
    return index
