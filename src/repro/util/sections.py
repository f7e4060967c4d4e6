"""The section-directory codec of the FPSMBIN1 binary model format.

The binary model format (:mod:`repro.persistence`) is a handful of
flat columns — ``int64`` count and length tables and UTF-8 string
blobs — packed one after another behind a self-describing directory,
such that a reader can ``memoryview.cast`` the integer columns
straight out of the mapping without copying.  This
module is that layout, apart from the meter-file envelope that
``persistence.py`` supplies::

    magic | uint64 header length | header JSON | pad
    | section payloads (each 8-byte aligned)

The header is a sorted-keys JSON object carrying caller-supplied
fields (format versions, meter metadata, …) plus the ``sections``
directory: for every section its ``name``, ``dtype``, absolute
``offset``, byte ``length`` and element ``count``.  Packing is
deterministic — same fields and sections, same bytes — which model
files rely on (artefact diffing).

Supported dtypes — the two a meter's ``to_buffers`` writes:

========  ================  =============================
dtype     packed from       unpacked to
========  ================  =============================
``i64``   ``array('q')``    zero-copy ``memoryview('q')``
``utf8``  ``str``           ``str``
========  ================  =============================

A directory naming any other dtype fails to decode.

``utf8`` sections are coded with ``surrogatepass``: a lone surrogate
(JSON's ``"\ud800"`` decodes to one) round-trips, and valid text keeps
its plain UTF-8 bytes.

Foreign-endian input (a model file moved between hosts) falls back to
a byteswapped copy for ``i64`` columns.

All structural failures raise :class:`SectionError` (a ``ValueError``)
with the reason only; callers wrap it with their own context (the
file path).  :func:`check_partition` and
:func:`check_parallel` are the checks callers make on the columns they
decode: a length column must split its blob exactly, and parallel
columns must be equally long.
"""

from __future__ import annotations

import json
import sys
from array import array
from typing import Any, Dict, List, Mapping, Sequence, Sized, Tuple

#: Payload sections are padded to this alignment so ``int64`` columns
#: can be cast straight out of the mapping.
ALIGN = 8


class SectionError(ValueError):
    """A packed section layout is structurally invalid."""


def encode_section(value: Any) -> Tuple[str, bytes, int]:
    """``(dtype, payload, count)`` for one section value."""
    if isinstance(value, array) and value.typecode == "q":
        return "i64", value.tobytes(), len(value)
    if isinstance(value, str):
        payload = value.encode("utf-8", "surrogatepass")
        return "utf8", payload, len(payload)
    described = (
        f"array({value.typecode!r})" if isinstance(value, array)
        else type(value).__name__
    )
    raise TypeError(
        f"binary sections must be array('q') or str, got {described}"
    )


def pack(
    magic: bytes,
    header_fields: Mapping[str, Any],
    sections: Mapping[str, Any],
) -> bytes:
    """Render the full ``magic | header | aligned payloads`` image.

    ``header_fields`` is merged into the header object verbatim (it
    must be JSON-serialisable and must not contain a ``sections`` key);
    the caller stamps ``byteorder`` there (model files do), and
    :func:`decode_sections` assumes this host's order without it.
    """
    if "sections" in header_fields:
        raise ValueError("'sections' is a reserved header field")
    encoded = [
        (name, *encode_section(value))
        for name, value in sections.items()
    ]

    def _render_header(offsets: List[int]) -> bytes:
        header = dict(header_fields)
        header["sections"] = [
            {
                "name": name,
                "dtype": dtype,
                "offset": offset,
                "length": len(payload),
                "count": count,
            }
            for (name, dtype, payload, count), offset in zip(
                encoded, offsets
            )
        ]
        return json.dumps(header, sort_keys=True).encode("utf-8")

    # Header length depends on the offsets and vice versa; iterate to
    # a fixed point (two passes suffice — offsets only grow when the
    # header grows, and digit-count growth converges immediately).
    offsets = [0] * len(encoded)
    for _ in range(4):
        header_bytes = _render_header(offsets)
        base = len(magic) + 8 + len(header_bytes)
        base += (-base) % ALIGN
        new_offsets = []
        position = base
        for _name, _dtype, payload, _count in encoded:
            new_offsets.append(position)
            position += len(payload)
            position += (-position) % ALIGN
        if new_offsets == offsets:
            break
        offsets = new_offsets
    header_bytes = _render_header(offsets)
    pieces = [magic, len(header_bytes).to_bytes(8, "little"), header_bytes]
    position = len(magic) + 8 + len(header_bytes)
    for (_name, _dtype, payload, _count), offset in zip(encoded, offsets):
        pieces.append(b"\0" * (offset - position))
        pieces.append(payload)
        position = offset + len(payload)
    return b"".join(pieces)


def read_header(view: memoryview, magic: bytes) -> Dict[str, Any]:
    """Validate the framing and parse the header object of ``view``."""
    prefix = len(magic) + 8
    if len(view) < prefix:
        raise SectionError("truncated before header")
    if bytes(view[: len(magic)]) != magic:
        raise SectionError(f"bad magic (expected {magic!r})")
    header_length = int.from_bytes(view[len(magic):prefix], "little")
    if len(view) < prefix + header_length:
        raise SectionError("truncated inside header")
    try:
        header = json.loads(
            bytes(view[prefix:prefix + header_length]).decode("utf-8")
        )
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SectionError(f"corrupt header: {error}") from error
    if not isinstance(header, dict):
        raise SectionError("header must be a JSON object")
    return header


def decode_sections(
    header: Mapping[str, Any], view: memoryview
) -> Dict[str, Any]:
    """Materialise every directory entry of ``header`` out of ``view``.

    ``i64`` columns come back as zero-copy casts of the underlying
    buffer unless the recorded ``byteorder`` disagrees with this host
    (then a byteswapped ``array`` copy).
    """
    swap = header.get("byteorder", sys.byteorder) != sys.byteorder
    sections: Dict[str, Any] = {}
    for entry in header.get("sections", []):
        name = entry["name"]
        offset = entry["offset"]
        length = entry["length"]
        if offset + length > len(view):
            raise SectionError(f"truncated section {name!r}")
        raw = view[offset:offset + length]
        dtype = entry["dtype"]
        if dtype == "i64":
            if length % 8:
                raise SectionError(
                    f"misaligned {dtype} section {name!r}"
                )
            if swap:
                column = array("q")
                column.frombytes(raw)
                column.byteswap()
                sections[name] = column
            else:
                sections[name] = raw.cast("q")
        elif dtype == "utf8":
            try:
                sections[name] = bytes(raw).decode(
                    "utf-8", "surrogatepass"
                )
            except UnicodeDecodeError as error:
                raise SectionError(
                    f"corrupt utf8 section {name!r}: {error}"
                ) from error
        else:
            raise SectionError(f"unknown section dtype {dtype!r}")
    return sections


def check_partition(
    lengths: Sequence[int], size: int, name: str, whole: str
) -> None:
    """Require the length column ``name`` to split ``whole`` exactly.

    ``whole`` holds ``size`` elements (characters of a blob, symbols of
    a structure column); every length must be non-negative and the
    lengths must sum to ``size``, or a reader would slice the wrong
    items without noticing.
    """
    if len(lengths) and min(lengths) < 0:
        raise SectionError(f"{name} holds a negative length")
    covered = sum(lengths)
    if covered != size:
        raise SectionError(
            f"{name} covers {covered} of the {size} elements of {whole}"
        )


def check_parallel(columns: Mapping[str, Sized]) -> None:
    """Require the columns of one table to be equally long."""
    sizes = {name: len(column) for name, column in columns.items()}
    if len(set(sizes.values())) > 1:
        described = ", ".join(
            f"{name} {size}" for name, size in sizes.items()
        )
        raise SectionError(f"parallel columns differ in length: {described}")
