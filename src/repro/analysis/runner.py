"""File discovery and the two-pass ``repro lint`` engine.

:func:`check_source` lints one in-memory module (the unit the test
fixtures target), :func:`lint_paths` runs the full pipeline over
files/directories, and :func:`run` is the CLI-facing wrapper that
picks a reporter and turns the violation list into an exit code.

The pipeline (DESIGN.md §13):

1. discover files and hash their bytes;
2. **fully-warm fast path** — when the incremental cache matches the
   rule key and every file digest, serve the previous run's results
   without parsing anything;
3. otherwise build the pass-1 :class:`ProjectIndex` over all files
   (one parse each, shared with pass 2), then lint each file whose
   cached entry is stale — serially or across a process pool — and
   refresh the cache.

Discovery applies a per-directory *profile*: files under ``src`` get
every rule; files under ``tests``/``benchmarks``/``tools``/
``examples`` get a relaxed set (annotation coverage, unseeded RNG and
similar production-surface rules are exempt — a test asserting
bit-identity with ``==`` on probabilities is the suite's core
contract, not a hazard).  The fork-safety, epoch-discipline and
hygiene rules stay on everywhere.
"""

from __future__ import annotations

import ast
import multiprocessing
import os
import re
import sys
from typing import Dict, Iterable, List, Optional, Sequence, TextIO, Tuple

from repro import obs
from repro.analysis.cache import LintCache, file_digest
from repro.analysis.cache import rule_key as compute_rule_key
from repro.analysis.core import (
    SYNTAX_RULE_ID,
    LintContext,
    UnknownRuleError,
    Violation,
    apply_suppressions,
    find_suppressions,
)
from repro.analysis.project import ProjectIndex, build_project_index
from repro.analysis.registry import all_rules, create_rules, validate_select
from repro.analysis.reporters import REPORTERS

#: Directories never descended into during discovery.
_SKIPPED_DIRECTORIES = frozenset(
    {
        "__pycache__",
        ".git",
        ".venv",
        "build",
        "dist",
        ".mypy_cache",
        ".ruff_cache",
        ".pytest_cache",
        ".hypothesis",
    }
)

#: Path segments that put a file under the relaxed profile (unless it
#: also sits under ``src``, which always wins).
_RELAXED_SEGMENTS = frozenset({"tests", "benchmarks", "tools", "examples"})

#: Rules exempt under the relaxed profile.  FPM008/FPM003 per the
#: profile's charter; FPM001/FPM002 because bit-identity ``==`` on
#: probabilities *is* the differential suites' contract; FPM010
#: because tests legitimately pin concrete meters and kind literals;
#: FPM011/FPM014 because benchmarks and fixtures probe internals on
#: purpose.  Fork-safety (FPM012), epoch discipline (FPM013) and the
#: hygiene rules stay on everywhere.
_RELAXED_EXEMPT = frozenset(
    {"FPM001", "FPM002", "FPM003", "FPM008", "FPM010", "FPM011", "FPM014"}
)

#: Part of the cache's rule key: results depend on the profile map.
_PROFILE_SIGNATURE = (
    "relaxed="
    + ",".join(sorted(_RELAXED_SEGMENTS))
    + ";exempt="
    + ",".join(sorted(_RELAXED_EXEMPT))
)


def profile_for(path: str) -> str:
    """``strict`` or ``relaxed`` for one file path."""
    segments = [part for part in re.split(r"[\\/]", path) if part]
    if "src" in segments:
        return "strict"
    if any(part in _RELAXED_SEGMENTS for part in segments):
        return "relaxed"
    return "strict"


def _effective_select(
    select: Optional[Sequence[str]], path: str
) -> Optional[List[str]]:
    """The per-file rule set after applying the directory profile."""
    if profile_for(path) != "relaxed":
        return list(select) if select is not None else None
    base = list(select) if select is not None else list(all_rules())
    return [rule_id for rule_id in base if rule_id not in _RELAXED_EXEMPT]


def _lint_file(
    source: str,
    path: str,
    select: Optional[Sequence[str]],
    index: Optional[ProjectIndex],
    tree: Optional[ast.Module] = None,
) -> List[Violation]:
    """Pass 2 for one file: parse (if needed), rules, suppressions."""
    if tree is None:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            return [
                Violation(
                    path=path,
                    line=error.lineno or 1,
                    column=(error.offset or 0) + 1,
                    rule_id=SYNTAX_RULE_ID,
                    message=f"file does not parse: {error.msg}",
                )
            ]
    context = LintContext(path, source)
    for rule in create_rules(context, select=select, index=index):
        rule.check(tree)
    return apply_suppressions(
        context.violations,
        find_suppressions(source),
        path,
        known_rule_ids=frozenset(all_rules()),
    )


def check_source(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
    index: Optional[ProjectIndex] = None,
) -> List[Violation]:
    """Lint one module's source text and return sorted violations.

    ``index`` feeds the cross-module rules; without one they degrade
    per their own contracts (FPM012-015 skip, FPM010/011 fall back to
    file-local heuristics).  No directory profile is applied here —
    callers linting a tree want :func:`lint_paths`.

    Raises:
        UnknownRuleError: if ``select`` names an unknown rule id (a
            ``KeyError`` subclass).
    """
    selected = list(select) if select is not None else None
    if selected is not None:
        validate_select(selected)
    return _lint_file(source, path, selected, index)


def discover_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Raises:
        FileNotFoundError: if a named path does not exist.
    """
    found: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
        elif os.path.isdir(path):
            for root, directories, files in os.walk(path):
                directories[:] = sorted(
                    name
                    for name in directories
                    if name not in _SKIPPED_DIRECTORIES
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        found.append(os.path.join(root, name))
        else:
            raise FileNotFoundError(path)
    return sorted(set(found))


# --- the parallel file pass ------------------------------------------
#
# The index pickles into each worker exactly once (pool initializer),
# task chunks carry only (path, source) pairs.  This broadcast-once
# pattern is the one FPM012 polices, so the linter's own pool is
# written under its own rule.

_WORKER_INDEX: Optional[ProjectIndex] = None
_WORKER_SELECT: Optional[Tuple[str, ...]] = None


def _worker_init_lint(
    index: ProjectIndex, select: Optional[Tuple[str, ...]]
) -> None:
    """Pool initializer: install the broadcast-once lint state."""
    global _WORKER_INDEX, _WORKER_SELECT
    _WORKER_INDEX = index
    _WORKER_SELECT = select


def _lint_chunk(
    items: List[Tuple[str, str]]
) -> List[Tuple[str, List[Violation]]]:
    """Worker task: lint a chunk of ``(path, source)`` pairs."""
    return [
        (
            path,
            _lint_file(
                source,
                path,
                _effective_select(_WORKER_SELECT, path),
                _WORKER_INDEX,
            ),
        )
        for path, source in items
    ]


def _lint_parallel(
    pending: List[str],
    sources: Dict[str, str],
    select: Optional[Sequence[str]],
    index: ProjectIndex,
    jobs: int,
) -> Dict[str, List[Violation]]:
    workers = jobs if jobs > 0 else (os.cpu_count() or 1)
    workers = max(1, min(workers, len(pending)))
    chunks = [
        [(path, sources[path]) for path in pending[start::workers]]
        for start in range(workers)
    ]
    chunks = [chunk for chunk in chunks if chunk]
    results: Dict[str, List[Violation]] = {}
    selected = tuple(select) if select is not None else None
    with multiprocessing.Pool(
        processes=len(chunks),
        initializer=_worker_init_lint,
        initargs=(index, selected),
    ) as pool:
        for chunk_result in pool.imap(_lint_chunk, chunks):
            for path, violations in chunk_result:
                results[path] = violations
    return results


def lint_paths(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    jobs: int = 1,
    cache_path: Optional[str] = None,
) -> "tuple[List[Violation], int]":
    """Lint paths; returns ``(violations, files_checked)``.

    ``jobs`` > 1 (or 0 for the CPU count) fans the file pass over a
    process pool.  ``cache_path`` enables the incremental cache (see
    :mod:`repro.analysis.cache`); ``None`` — the library default —
    always runs cold.
    """
    selected = list(select) if select is not None else None
    if selected is not None:
        validate_select(selected)
    telemetry = obs.get()
    files = discover_files(paths)
    sources: Dict[str, str] = {}
    for path in files:
        with open(path, "r", encoding="utf-8") as handle:
            sources[path] = handle.read()
    digests = {path: file_digest(sources[path]) for path in files}
    key = compute_rule_key(selected, _PROFILE_SIGNATURE)

    cache: Optional[LintCache] = None
    if cache_path:
        cache = LintCache(cache_path)
        cache.load()
        if cache.matches_run(key, digests):
            # Identical bytes + identical rules ⇒ identical index ⇒
            # the whole previous run replays without a single parse.
            telemetry.incr("lint.cache.warm_run")
            violations = []
            for path in files:
                violations.extend(cache.cached_violations(path))
            telemetry.observe("lint.files", len(files))
            return sorted(violations), len(files)

    trees: Dict[str, ast.Module] = {}
    index = build_project_index(
        [(path, sources[path]) for path in files], trees
    )

    results: Dict[str, List[Violation]] = {}
    pending: List[str] = []
    for path in files:
        cached = (
            cache.lookup(path, digests[path], key, index.digest)
            if cache is not None
            else None
        )
        if cached is not None:
            telemetry.incr("lint.cache.hit")
            results[path] = cached
        else:
            if cache is not None:
                telemetry.incr("lint.cache.miss")
            pending.append(path)

    if jobs != 1 and len(pending) > 1:
        results.update(
            _lint_parallel(pending, sources, selected, index, jobs)
        )
    else:
        for path in pending:
            results[path] = _lint_file(
                sources[path],
                path,
                _effective_select(selected, path),
                index,
                trees.get(path),
            )

    if cache is not None:
        cache.store(
            key,
            index.digest,
            {path: (digests[path], results[path]) for path in files},
        )
    telemetry.observe("lint.files", len(files))
    violations = sorted(
        violation
        for file_violations in results.values()
        for violation in file_violations
    )
    return violations, len(files)


def run(
    paths: Sequence[str],
    output_format: str = "text",
    select: Optional[str] = None,
    stream: Optional[TextIO] = None,
    jobs: int = 1,
    cache_path: Optional[str] = None,
    fix: bool = False,
) -> int:
    """CLI driver: lint, report, and map the result to an exit code.

    Exit codes: 0 clean, 1 violations found, 2 usage error (unknown
    rule id, missing path, unknown format).  ``fix`` applies the
    mechanical autofixes (FPM007/FPM008) in place first, then reports
    what remains.
    """
    stream = stream if stream is not None else sys.stdout
    reporter = REPORTERS.get(output_format)
    if reporter is None:
        print(f"error: unknown format {output_format!r}", file=sys.stderr)
        return 2
    selected = None
    if select:
        selected = [part.strip() for part in select.split(",") if part.strip()]
        try:
            # Validate before touching the filesystem so FPM999 is a
            # usage error even over an empty or missing tree.
            validate_select(selected)
        except UnknownRuleError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

    if fix:
        from repro.analysis.fixes import fix_source

        try:
            files = discover_files(paths)
        except FileNotFoundError as error:
            print(f"error: no such path: {error.args[0]}", file=sys.stderr)
            return 2
        fixed_files = 0
        fix_count = 0
        for path in files:
            effective = _effective_select(selected, path)
            allowed = (
                frozenset(effective)
                if effective is not None
                else frozenset(all_rules())
            ) & {"FPM007", "FPM008"}
            if not allowed:
                continue
            with open(path, "r", encoding="utf-8") as handle:
                original = handle.read()
            fixed, count = fix_source(original, path, select=allowed)
            if count:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(fixed)
                fixed_files += 1
                fix_count += count
        print(
            f"fixed {fix_count} issue(s) in {fixed_files} file(s)",
            file=sys.stderr,
        )

    try:
        violations, files_checked = lint_paths(
            paths, select=selected, jobs=jobs, cache_path=cache_path
        )
    except UnknownRuleError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: no such path: {error.args[0]}", file=sys.stderr)
        return 2
    reporter(violations, files_checked, stream)
    return 1 if violations else 0


def describe_rules() -> List["tuple[str, str, str]"]:
    """``(rule_id, name, summary)`` rows for ``repro lint --list-rules``."""
    return [
        (rule_id, rule.name, rule.summary)
        for rule_id, rule in all_rules().items()
    ]
