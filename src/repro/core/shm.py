"""Zero-copy shared-memory snapshot plane (DESIGN.md §16).

Training pool workers parse with the parent's word index.  Pickling
it into each worker would re-deserialize it per process; this module
puts the index's flat columns into one POSIX
``multiprocessing.shared_memory`` segment instead, so any number of
pool workers attach in milliseconds from the *same* physical bytes:

* :class:`SharedScoringSegment` — owner/attachment handle.  ``create``
  packs the :meth:`~repro.core.word_index.WordIndex.to_arrays`
  columns of the forward and (optional) reversed indexes with the
  section-directory codec (:mod:`repro.util.sections` — the same
  layout as FPSMBIN1 model files) and writes the image into a fresh
  segment; ``attach`` opens it by name; ``materialize`` rebuilds the
  indexes' dicts from those columns
  (:meth:`~repro.core.word_index.WordIndex.from_arrays`: no per-word
  Python code, byte-identical parses).
* :class:`MaterializedScoringState` — the one snapshot type: the
  word indexes and the parser configuration needed to rebuild a
  byte-identical :class:`~repro.core.parser.FuzzyParser`.  The
  publishing side builds it from a live parser
  (:meth:`~MaterializedScoringState.from_parser`), ``create`` packs
  it, and ``materialize`` rebuilds it over an attached segment.
  Segments carry no grammar: training workers parse, they do not
  score.
* :func:`mp_context` — the repo-wide start-method policy: ``fork``
  where available, overridable via ``REPRO_START_METHOD`` (``spawn``
  CI legs run every pool through here).
* :func:`_worker_attach_state` — the per-process attach cache worker
  initializers call with a segment *name*; re-initialising with a new
  name attaches the new segment and detaches the old one.

Lifetime rules: exactly one process owns a segment (the one that
called ``create``); owners must ``unlink`` when the pool winds down,
and an ``atexit`` hook unlinks anything they leaked.  An owner killed
before either runs leaves the segment to its ``resource_tracker``,
which unlinks it once the owner is gone.  Attached processes only ever
``close`` their mapping.  CPython < 3.13 registers attachments with the
tracker too; a reader that shares its owner's tracker (every pool
worker, under fork and spawn alike) leaves that registration alone,
because removing it would remove the owner's entry, and a reader with
a tracker of its own removes it (see :meth:`SharedScoringSegment.attach`).
``close`` is BufferError-safe: should a view into the mapping
survive, the mapping is left open for the OS to reclaim at process
exit rather than failing the caller.
"""

from __future__ import annotations

import atexit
import gc
import multiprocessing
import os
import uuid
from multiprocessing import resource_tracker, shared_memory
from multiprocessing.context import BaseContext
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.core.parser import FuzzyParser
from repro.core.word_index import WordIndex
from repro.util.sections import decode_sections, pack, read_header

#: Magic of the in-segment image (the shared-memory sibling of the
#: FPSMBIN1 file magic; same directory codec behind it).
MAGIC = b"FPSMSHM1"

#: Every segment name starts with this, so tests (and operators
#: inspecting ``/dev/shm``) can attribute entries to the snapshot
#: plane — and the test suite can assert none leak.
SEGMENT_PREFIX = "reprosnap"

#: Environment variable selecting the pool start method repo-wide.
START_METHOD_ENV = "REPRO_START_METHOD"


def mp_context(method: Optional[str] = None) -> BaseContext:
    """The multiprocessing context every repo pool is built from.

    ``method`` (or the ``REPRO_START_METHOD`` environment variable)
    picks ``fork``/``spawn``/``forkserver`` explicitly; the default is
    ``fork`` where the platform offers it.  Because workers receive a
    segment *name* instead of a model, every start method behaves
    identically — the spawn CI legs simply export the variable.
    """
    chosen = method
    if chosen is None:
        env = os.environ.get(START_METHOD_ENV, "").strip().lower()
        chosen = env or None
    available = multiprocessing.get_all_start_methods()
    if chosen is None:
        chosen = "fork" if "fork" in available else available[0]
    if chosen not in available:
        raise ValueError(
            f"unsupported start method {chosen!r} (from "
            f"{START_METHOD_ENV}); expected one of {sorted(available)}"
        )
    return multiprocessing.get_context(chosen)


class MaterializedScoringState:
    """A parser's word indexes and configuration.

    Built from a live parser by :meth:`from_parser` (what
    :meth:`SharedScoringSegment.create` publishes), or rebuilt from an
    attached segment by :meth:`SharedScoringSegment.materialize`.
    """

    __slots__ = ("forward", "reversed_matcher", "min_length", "flags")

    def __init__(
        self,
        forward: WordIndex,
        reversed_matcher: Optional[WordIndex],
        min_length: int,
        flags: Dict[str, bool],
    ) -> None:
        self.forward = forward
        self.reversed_matcher = reversed_matcher
        self.min_length = min_length
        self.flags = flags

    @classmethod
    def from_parser(cls, parser: FuzzyParser) -> "MaterializedScoringState":
        """Snapshot ``parser``'s word indexes and configuration."""
        forward, reversed_matcher = parser.ensure_compiled_matchers()
        return cls(
            forward,
            reversed_matcher,
            parser.trie.min_length,
            parser.flags,
        )

    def build_parser(self) -> FuzzyParser:
        """A parser that parses byte-identically to the publisher's."""
        return FuzzyParser.from_compiled(
            self.forward,
            self.reversed_matcher,
            self.min_length,
            dict(self.flags),
        )


def _tracker_identity() -> List[int]:
    """This process's resource tracker, as its pipe's ``[st_dev, st_ino]``.

    ``multiprocessing`` children inherit their parent's tracker pipe
    under fork, spawn and forkserver, so processes with equal
    identities register into one tracker.
    """
    status = os.fstat(resource_tracker.getfd())
    return [status.st_dev, status.st_ino]


#: Segments created (hence owned) by this process, by name.  The
#: ``atexit`` sweep unlinks leftovers so crashed owners do not leak
#: ``/dev/shm`` entries; the pid check keeps fork children (which
#: inherit this dict but not ownership) from destroying segments the
#: parent is still serving.
_OWNED: Dict[str, "SharedScoringSegment"] = {}


def _cleanup_owned_segments() -> None:
    pid = os.getpid()
    for segment in list(_OWNED.values()):
        if segment.owner_pid == pid:
            segment.unlink()


atexit.register(_cleanup_owned_segments)


class SharedScoringSegment:
    """Handle on one snapshot segment (owner or attached reader)."""

    __slots__ = ("name", "owner_pid", "_shm", "_closed")

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        owner_pid: Optional[int],
    ) -> None:
        self.name = shm.name
        #: pid of the creating process; ``None`` on attached handles.
        self.owner_pid = owner_pid
        self._shm = shm
        self._closed = False

    # --- publish -----------------------------------------------------

    @classmethod
    def create(
        cls, state: MaterializedScoringState
    ) -> "SharedScoringSegment":
        """Pack a parser snapshot into a fresh shared segment."""
        trie_meta, trie_sections = state.forward.to_arrays()
        sections: Dict[str, Any] = {
            f"t.{name}": value for name, value in trie_sections.items()
        }
        parts: Dict[str, Any] = {"t": trie_meta}
        if state.reversed_matcher is not None:
            rev_meta, rev_sections = state.reversed_matcher.to_arrays()
            parts["r"] = rev_meta
            sections.update(
                (f"r.{name}", value)
                for name, value in rev_sections.items()
            )
        image = pack(
            MAGIC,
            {
                "min_length": state.min_length,
                "flags": dict(state.flags),
                "parts": parts,
                "tracker": _tracker_identity(),
            },
            sections,
        )
        shm: Optional[shared_memory.SharedMemory] = None
        while shm is None:
            candidate = (
                f"{SEGMENT_PREFIX}-{os.getpid()}-{uuid.uuid4().hex[:12]}"
            )
            try:
                shm = shared_memory.SharedMemory(
                    name=candidate, create=True, size=len(image)
                )
            except FileExistsError:  # pragma: no cover - uuid collision
                continue
        shm.buf[: len(image)] = image
        segment = cls(shm, owner_pid=os.getpid())
        _OWNED[segment.name] = segment
        telemetry = obs.get()
        if telemetry.enabled:
            telemetry.incr("shm.segment.created")
            telemetry.observe("shm.segment.bytes", float(len(image)))
        return segment

    # --- attach ------------------------------------------------------

    @classmethod
    def attach(cls, name: str) -> "SharedScoringSegment":
        """Open an existing segment by name (non-owning)."""
        shm = shared_memory.SharedMemory(name=name)
        view = memoryview(shm.buf)
        header = read_header(view, MAGIC)
        # CPython < 3.13 registers *attached* segments with the
        # resource tracker too; a tracker of this process's own would
        # unlink, at exit, a segment this process does not own, so that
        # registration is undone.  A tracker shared with the owner (the
        # owner itself, or a pool worker) keeps one entry per name, the
        # owner's: undoing the registration would remove it, and a
        # killed owner's segment would then outlive it.
        if header.get("tracker") != _tracker_identity():
            try:
                resource_tracker.unregister(
                    getattr(shm, "_name", "/" + shm.name), "shared_memory"
                )
            except (KeyError, ValueError):  # pragma: no cover - quirk
                pass
        segment = cls(shm, owner_pid=None)
        telemetry = obs.get()
        if telemetry.enabled:
            telemetry.incr("shm.segment.attached")
        return segment

    def materialize(self) -> MaterializedScoringState:
        """Rebuild the parser snapshot over this segment's bytes."""
        view = memoryview(self._shm.buf)
        header = read_header(view, MAGIC)
        sections = decode_sections(header, view)
        parts = header["parts"]

        def part(prefix: str) -> Dict[str, Any]:
            tag = prefix + "."
            return {
                name[len(tag):]: value
                for name, value in sections.items()
                if name.startswith(tag)
            }

        forward = WordIndex.from_arrays(parts["t"], part("t"))
        reversed_matcher = (
            WordIndex.from_arrays(parts["r"], part("r"))
            if "r" in parts
            else None
        )
        return MaterializedScoringState(
            forward,
            reversed_matcher,
            int(header["min_length"]),
            {str(name): bool(value)
             for name, value in header["flags"].items()},
        )

    # --- lifetime ----------------------------------------------------

    @property
    def size(self) -> int:
        """Mapping size in bytes (page-rounded by the OS)."""
        return self._shm.size

    def close(self) -> None:
        """Detach this process's mapping (idempotent).

        A view into the mapping that is still alive (a section decoded
        by a caller) makes closing raise ``BufferError``.  One GC pass
        is attempted to collect dropped views; if views still remain
        the mapping is left open (the OS reclaims it at process exit)
        instead of failing the caller mid-swap.
        """
        if self._closed:
            return
        shm = self._shm
        try:
            shm.close()
        except BufferError:
            gc.collect()
            try:
                shm.close()
            except BufferError:
                # Live views still reference the mapping (they hold it
                # alive through their exporting ``mmap``, and the OS
                # reclaims it once the last one dies).  Release what
                # this handle owns — the fd — and neutralize it so
                # ``SharedMemory.__del__`` does not retry (and fail
                # noisily) during interpreter teardown.
                fd = getattr(shm, "_fd", -1)
                if isinstance(fd, int) and fd >= 0:
                    try:
                        os.close(fd)
                    except OSError:  # pragma: no cover - already closed
                        pass
                    setattr(shm, "_fd", -1)
                setattr(shm, "_mmap", None)
        self._closed = True

    def unlink(self) -> None:
        """Destroy the segment name (owner side).

        Existing mappings in attached processes stay valid until each
        closes; only the name disappears, so late attachers fail fast
        instead of reading a retired segment.
        """
        _OWNED.pop(self.name, None)
        self.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            return
        telemetry = obs.get()
        if telemetry.enabled:
            telemetry.incr("shm.segment.unlinked")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "owner" if self.owner_pid is not None else "attached"
        return f"SharedScoringSegment({self.name!r}, {role})"


#: Single-slot per-process attach cache: ``(segment name, handle,
#: materialized state)``.  Worker initializers re-run on every pool
#: (re)build with the current segment name; a changed name is a swap
#: — attach the new segment, drop and close the old one.
_ATTACH_CACHE: Optional[
    Tuple[str, SharedScoringSegment, MaterializedScoringState]
] = None


def _cleanup_attach_cache() -> None:
    """Drop the attach cache and detach its mapping at process exit.

    Registered after the owned-segment sweep, so it runs first (LIFO),
    and ``SharedMemory.__del__`` finds nothing left to close during
    interpreter teardown.
    """
    global _ATTACH_CACHE
    cached = _ATTACH_CACHE
    _ATTACH_CACHE = None
    if cached is not None:
        cached[1].close()


atexit.register(_cleanup_attach_cache)


def _worker_attach_state(name: str) -> MaterializedScoringState:
    """Attach ``name`` and materialize it, with a single-slot cache.

    The shared tail of every pool initializer on the snapshot plane
    (the ``_worker_attach*`` prefix is blessed by FPM012 exactly like
    ``_worker_init*``): repeated calls with the same name — respawned
    tasks, batched re-inits — reuse the existing mapping, so only the
    first call per segment pays the (millisecond) attach.
    """
    global _ATTACH_CACHE
    cached = _ATTACH_CACHE
    if cached is not None and cached[0] == name:
        return cached[2]
    segment = SharedScoringSegment.attach(name)
    state = segment.materialize()
    if cached is not None:
        _ATTACH_CACHE = None
        cached[1].close()
    _ATTACH_CACHE = (name, segment, state)
    return state
