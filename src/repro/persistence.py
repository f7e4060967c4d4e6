"""Saving and loading trained meters: JSON and binary model files.

Trained meters are artefacts a deployment builds once and ships; this
module gives every registered :class:`Persistable` meter a common
on-disk format::

    from repro import FuzzyPSM
    from repro.persistence import save_meter, load_meter

    meter = FuzzyPSM.train(base, training)
    save_meter(meter, "fuzzy.json")
    meter = load_meter("fuzzy.json")   # type restored automatically

Files carry a ``kind`` tag, the meter's capability list and a format
version, so loading dispatches through the meter registry
(:mod:`repro.meters.registry`) and future format changes stay
detectable.  Registering a new ``Persistable`` meter is all it takes
to make it saveable and loadable — there is no per-kind table here.

Output is deterministic: keys are sorted, so saving the same model
twice produces byte-identical files (required for artefact diffing
and content-addressed caches).

Meters that additionally declare ``binary-persistable``
(``to_buffers``/``from_buffers``) support a second, array-backed
format — ``save_meter(meter, path, fmt="binary")``.  A RockYou-scale
JSON model spends its load time inside the JSON parser building
per-key Python objects; the binary format instead stores every count
table as a flat ``int64`` column and every string table as one UTF-8
blob plus a length column, memory-maps the file and reads the columns
zero-copy.  The layout::

    magic "FPSMBIN1" | uint64 header length | header JSON | pad
    | section payloads (each 8-byte aligned)

The header is the versioned envelope (binary format version, the JSON
envelope's ``format_version``, ``kind``, capability list, byte order,
meter metadata and the section directory).  :func:`load_meter` sniffs
the magic, so both formats load through the same call.
"""

from __future__ import annotations

import json
import mmap
import sys
from typing import TYPE_CHECKING, Any, Dict

if TYPE_CHECKING:  # runtime import stays local (attacks imports this module)
    from repro.attacks.masks import MaskSet

from repro.meters import registry
from repro.meters.base import Meter
from repro.meters.registry import Capability, MeterSpec
from repro.util.sections import SectionError, decode_sections, read_header
from repro.util.sections import pack as pack_sections

FORMAT_VERSION = 1

#: Leading bytes of a binary model file; the trailing digit is bumped
#: together with :data:`BINARY_FORMAT_VERSION` on layout changes, so a
#: stale reader fails on the magic before trusting any offset.
BINARY_MAGIC = b"FPSMBIN1"

#: Version of the binary layout recorded in (and checked against) the
#: header envelope.
BINARY_FORMAT_VERSION = 1


def _persistable_spec(meter: Meter) -> MeterSpec:
    """The registry spec for a meter, verified persistable.

    Raises:
        TypeError: the meter is unregistered or not ``Persistable``
            (kept a ``TypeError`` — the caller passed a wrong *type*
            of object, unlike on-disk data errors which are
            ``ValueError``).
    """
    spec = registry.spec_for(meter)
    if spec is None or not spec.has(Capability.PERSISTABLE):
        supported = ", ".join(registry.kinds_with(Capability.PERSISTABLE))
        raise TypeError(
            f"cannot serialise meter of type {type(meter).__name__}; "
            f"supported: {supported}"
        )
    return spec


def meter_to_dict(meter: Meter) -> Dict[str, Any]:
    """The JSON-ready document for a trained meter."""
    spec = _persistable_spec(meter)
    return {
        "format_version": FORMAT_VERSION,
        "kind": spec.kind,
        "capabilities": spec.capability_names(),
        "model": meter.to_dict(),
    }


def meter_from_dict(document: Dict[str, Any]) -> Meter:
    """Rebuild a meter from :func:`meter_to_dict` output.

    Raises:
        ValueError: unsupported format version, unknown ``kind``, or a
            ``kind`` whose registry entry is not ``Persistable``.
    """
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    kind = document.get("kind")
    known = ", ".join(registry.kinds_with(Capability.PERSISTABLE))
    if not isinstance(kind, str):
        raise ValueError(f"unknown meter kind {kind!r}; known: {known}")
    try:
        spec = registry.get_spec(kind)
    except ValueError:
        raise ValueError(
            f"unknown meter kind {kind!r}; known: {known}"
        ) from None
    if not spec.has(Capability.PERSISTABLE):
        raise ValueError(
            f"meter kind {spec.kind!r} is registered without the "
            f"persistable capability; loadable kinds: {known}"
        )
    return spec.cls.from_dict(document["model"])


def save_meter(meter: Meter, path: str, fmt: str = "json") -> None:
    """Write a trained meter to disk (deterministic bytes).

    Args:
        meter: a registered persistable meter.
        path: output file.
        fmt: ``json`` (the portable envelope) or ``binary`` (the
            array-backed mmap-fast format; requires the meter's
            registry entry to declare ``binary-persistable``).
    """
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(meter_to_dict(meter), handle, sort_keys=True)
            handle.write("\n")
    elif fmt == "binary":
        _save_meter_binary(meter, path)
    else:
        raise ValueError(f"unknown model format {fmt!r}")


# --- binary model format ----------------------------------------------------


def _binary_spec(meter: Meter) -> MeterSpec:
    """The registry spec for a meter, verified binary-persistable."""
    spec = _persistable_spec(meter)
    if not spec.has(Capability.BINARY_PERSISTABLE):
        supported = ", ".join(
            registry.kinds_with(Capability.BINARY_PERSISTABLE)
        )
        raise TypeError(
            f"meter kind {spec.kind!r} has no binary format; "
            f"supported: {supported}"
        )
    return spec


def _save_meter_binary(meter: Meter, path: str) -> None:
    """Write the magic/header/aligned-sections binary layout.

    The framing itself lives in :mod:`repro.util.sections`; this
    function only supplies the meter-file envelope fields.  Output bytes are
    identical to the pre-extraction writer.
    """
    spec = _binary_spec(meter)
    meta, sections = meter.to_buffers()
    image = pack_sections(
        BINARY_MAGIC,
        {
            "binary_format_version": BINARY_FORMAT_VERSION,
            "format_version": FORMAT_VERSION,
            "kind": spec.kind,
            "capabilities": spec.capability_names(),
            "byteorder": sys.byteorder,
            "meta": meta,
        },
        sections,
    )
    with open(path, "wb") as handle:
        handle.write(image)


def _binary_error(path: str, reason: str) -> ValueError:
    return ValueError(f"{path} is not a valid binary meter file: {reason}")


def _load_meter_binary(path: str) -> Meter:
    """Map a binary model file and rebuild its meter.

    Integer columns are read zero-copy (``memoryview.cast``) out of the
    mapping; the meter's ``from_buffers`` materialises its own tables,
    after which the mapping is closed.
    """
    with open(path, "rb") as handle:
        try:
            mapped = mmap.mmap(
                handle.fileno(), 0, access=mmap.ACCESS_READ
            )
        except ValueError as error:  # empty file cannot be mapped
            raise _binary_error(path, str(error)) from error
    meter = _parse_binary_mapping(path, mapped)
    # All zero-copy views live in the parser frame, which has returned;
    # the error paths leave the mapping to the garbage collector
    # instead (closing with exported views would raise BufferError and
    # mask the real diagnostic).
    mapped.close()
    return meter


def _parse_binary_mapping(path: str, mapped: mmap.mmap) -> Meter:
    """Validate the header and rebuild the meter from a live mapping."""
    view = memoryview(mapped)
    try:
        header = read_header(view, BINARY_MAGIC)
    except SectionError as error:
        raise _binary_error(path, str(error)) from error
    version = header.get("binary_format_version")
    if version != BINARY_FORMAT_VERSION:
        raise _binary_error(
            path,
            f"unsupported binary format version {version!r} "
            f"(this build reads version {BINARY_FORMAT_VERSION})",
        )
    kind = header.get("kind")
    known = ", ".join(
        registry.kinds_with(Capability.BINARY_PERSISTABLE)
    )
    if not isinstance(kind, str):
        raise _binary_error(
            path, f"unknown meter kind {kind!r}; known: {known}"
        )
    try:
        spec = registry.get_spec(kind)
    except ValueError:
        raise _binary_error(
            path, f"unknown meter kind {kind!r}; known: {known}"
        ) from None
    if not spec.has(Capability.BINARY_PERSISTABLE):
        raise _binary_error(
            path,
            f"meter kind {spec.kind!r} has no binary format; "
            f"loadable kinds: {known}",
        )
    try:
        sections = decode_sections(header, view)
    except SectionError as error:
        raise _binary_error(path, str(error)) from error
    meta = header.get("meta", {})
    try:
        return spec.cls.from_buffers(meta, sections)
    except (KeyError, IndexError, TypeError, ValueError) as error:
        raise _binary_error(
            path, f"corrupt section data: {error}"
        ) from error


# --- telemetry snapshots ----------------------------------------------------

#: On-disk format version for telemetry reports (``repro profile`` and
#: the experiments runner persist these next to their results).
TELEMETRY_FORMAT_VERSION = 1


def save_telemetry_report(report: dict, path: str) -> None:
    """Write a telemetry report (:func:`repro.obs.build_report`) to JSON.

    The document is wrapped with a ``kind`` tag and a format version —
    the same envelope discipline as trained-meter files — so tooling
    that ingests both can dispatch on ``kind``.
    """
    document = {
        "format_version": TELEMETRY_FORMAT_VERSION,
        "kind": "telemetry",
        "report": report,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


# --- compiled mask sets -----------------------------------------------------

#: On-disk format version for compiled mask sets (``repro attack masks``
#: persists these so crossover extrapolation can run without re-training).
MASKSET_FORMAT_VERSION = 1


def save_mask_set(mask_set: "MaskSet", path: str) -> None:
    """Write a compiled :class:`repro.attacks.masks.MaskSet` to JSON.

    Same envelope discipline as trained-meter and telemetry files: a
    ``kind`` tag plus a format version, with sorted keys so identical
    mask sets produce byte-identical files.
    """
    document = {
        "format_version": MASKSET_FORMAT_VERSION,
        "kind": "maskset",
        "maskset": mask_set.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)
        handle.write("\n")


def load_mask_set(path: str) -> "MaskSet":
    """Read back a mask set written by :func:`save_mask_set`."""
    from repro.attacks.masks import MaskSet

    with open(path, encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as error:
            raise ValueError(
                f"{path} is not a valid mask-set file: {error}"
            ) from error
    if not isinstance(document, dict):
        raise ValueError(
            f"{path} is not a valid mask-set file: expected a JSON object"
        )
    version = document.get("format_version")
    if version != MASKSET_FORMAT_VERSION:
        raise ValueError(
            f"unsupported mask-set format version {version!r} "
            f"(this build reads version {MASKSET_FORMAT_VERSION})"
        )
    if document.get("kind") != "maskset":
        raise ValueError(
            f"not a mask-set file: kind={document.get('kind')!r}"
        )
    body = document.get("maskset")
    if not isinstance(body, dict):
        raise ValueError("mask-set body must be an object")
    return MaskSet.from_dict(body)


def load_meter(path: str) -> Meter:
    """Read a trained meter back; the concrete class is restored.

    Both on-disk formats load through this call: the leading bytes are
    sniffed, files starting with :data:`BINARY_MAGIC` take the
    memory-mapped binary path and anything else is parsed as the JSON
    envelope.

    Raises:
        ValueError: the file is not a supported meter document in
            either format (see :func:`meter_from_dict`).
    """
    with open(path, "rb") as handle:
        magic = handle.read(len(BINARY_MAGIC))
    if magic == BINARY_MAGIC:
        return _load_meter_binary(path)
    with open(path, encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as error:
            raise ValueError(
                f"{path} is not a valid meter file: {error}"
            ) from error
    if not isinstance(document, dict):
        raise ValueError(
            f"{path} is not a valid meter file: expected a JSON object"
        )
    return meter_from_dict(document)
