"""Content-hash-keyed incremental cache for ``repro lint``.

At fifteen rules plus a whole-program pass, a cold lint of the repo
parses every file twice (index + rules).  The cache makes the common
case — re-linting a tree where little or nothing changed — nearly
free, without ever trading soundness for speed:

* Every entry is keyed by the triple the ISSUE names: the **file
  digest** (SHA-256 of the bytes), the **rule key** (analyzer version
  + selected rule ids + profile configuration), and the **index
  digest** (a hash of the pass-1 semantic index).  Cross-module rules
  read the whole index, so a cached file result is only valid while
  the index it was computed under is byte-identical.
* The fully-warm fast path needs no parsing at all: when the rule key
  and the complete ``path → digest`` map match the previous run, the
  previous index is necessarily identical too (it is a pure function
  of those bytes), so every entry is served straight from disk.
* Partial warmth still pays for one index build (correctness demands
  it — an edit anywhere can change what the cross-module rules see),
  then reuses per-file results whenever the file digest matched *and*
  the rebuilt index digest equals the cached one (e.g. comment-only
  edits elsewhere).

A corrupt, unreadable, version-skewed or just missing cache file
degrades to a cold run; the cache can never make lint fail.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Dict, List, Optional, Sequence

from repro.analysis.core import Violation

#: Bump on any change to rule behavior, the index format, or the
#: violation schema: stale caches must never survive an upgrade.
ANALYZER_VERSION = "2026.10.2"

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_PATH = ".repro_lint_cache.json"


def file_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def rule_key(
    select: Optional[Sequence[str]],
    profile_signature: str,
) -> str:
    """Hash of everything that affects results besides file content."""
    payload = json.dumps(
        [
            ANALYZER_VERSION,
            sorted(select) if select is not None else "ALL",
            profile_signature,
        ],
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _violation_to_dict(violation: Violation) -> Dict[str, object]:
    return {
        "path": violation.path,
        "line": violation.line,
        "column": violation.column,
        "rule_id": violation.rule_id,
        "message": violation.message,
    }


def _violation_from_dict(data: Dict[str, object]) -> Violation:
    return Violation(
        path=str(data["path"]),
        line=int(data["line"]),  # type: ignore[arg-type]
        column=int(data["column"]),  # type: ignore[arg-type]
        rule_id=str(data["rule_id"]),
        message=str(data["message"]),
    )


class LintCache:
    """One JSON file of per-path results from the previous run."""

    def __init__(self, path: str = DEFAULT_CACHE_PATH) -> None:
        self.path = path
        self._rule_key: Optional[str] = None
        self._index_digest: Optional[str] = None
        self._files: Dict[str, Dict[str, object]] = {}
        self.loaded = False

    # --- reading -------------------------------------------------------

    def load(self) -> bool:
        """Read the previous run; ``False`` (and empty) on any defect."""
        self.loaded = True
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return False
        if not isinstance(payload, dict):
            return False
        if payload.get("version") != ANALYZER_VERSION:
            return False
        files = payload.get("files")
        if not isinstance(files, dict):
            return False
        self._rule_key = payload.get("rule_key")
        self._index_digest = payload.get("index_digest")
        self._files = files
        return True

    def matches_run(
        self, key: str, digests: Dict[str, str]
    ) -> bool:
        """Fully-warm check: same rules, same files, same bytes."""
        if self._rule_key != key or set(self._files) != set(digests):
            return False
        return all(
            self._files[path].get("digest") == digest
            for path, digest in digests.items()
        )

    def cached_violations(self, path: str) -> List[Violation]:
        entry = self._files.get(path, {})
        raw = entry.get("violations", [])
        return [
            _violation_from_dict(item)
            for item in raw  # type: ignore[union-attr]
            if isinstance(item, dict)
        ]

    def lookup(
        self, path: str, digest: str, key: str, index_digest: str
    ) -> Optional[List[Violation]]:
        """Per-file reuse under the (digest, rule key, index) triple."""
        if self._rule_key != key or self._index_digest != index_digest:
            return None
        entry = self._files.get(path)
        if entry is None or entry.get("digest") != digest:
            return None
        return self.cached_violations(path)

    # --- writing -------------------------------------------------------

    def store(
        self,
        key: str,
        index_digest: str,
        results: Dict[str, "tuple[str, List[Violation]]"],
    ) -> None:
        """Replace the cache with this run's ``path → (digest, violations)``."""
        payload = {
            "version": ANALYZER_VERSION,
            "rule_key": key,
            "index_digest": index_digest,
            "files": {
                path: {
                    "digest": digest,
                    "violations": [
                        _violation_to_dict(violation)
                        for violation in violations
                    ],
                }
                for path, (digest, violations) in sorted(results.items())
            },
        }
        directory = os.path.dirname(self.path) or "."
        try:
            fd, temporary = tempfile.mkstemp(
                prefix=".lint_cache.", dir=directory
            )
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(temporary, self.path)
        except OSError:
            # A read-only checkout loses caching, never correctness.
            try:
                os.unlink(temporary)
            except (OSError, UnboundLocalError):
                pass
