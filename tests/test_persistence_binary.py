"""Tests for the array-backed binary model format (FPSMBIN1).

The binary format exists so corpus-scale models load through one
``mmap`` + zero-copy integer casts instead of a JSON parse.  It must
be a pure re-encoding: loading a binary model yields the same meter —
bit for bit, down to count-table insertion order — as the JSON path,
and a hostile or truncated file must fail with a diagnostic
``ValueError``, never a crash or a silently wrong model.
"""

import json
import struct
from array import array

import pytest

from repro.core import FuzzyPSM
from repro.persistence import (
    BINARY_FORMAT_VERSION,
    BINARY_MAGIC,
    load_meter,
    save_meter,
)
from repro.util.sections import pack, read_header

PASSWORDS = [
    "password", "password", "password123", "Password123", "p@ssw0rd",
    "123456", "123456", "DRAGON1", "1nogard", "letmein!", "qwerty12",
]

PROBES = ["password", "password123", "P@ssw0rd9", "dragon1", "zzz!!!"]


@pytest.fixture(scope="module")
def fuzzy():
    return FuzzyPSM.train(base_dictionary=PASSWORDS, training=PASSWORDS)


@pytest.fixture()
def binary_path(fuzzy, tmp_path):
    path = str(tmp_path / "fuzzy.bin")
    save_meter(fuzzy, path, fmt="binary")
    return path


class TestRoundTrip:
    def test_scores_survive(self, fuzzy, binary_path):
        loaded = load_meter(binary_path)
        assert isinstance(loaded, FuzzyPSM)
        for probe in PROBES:
            assert loaded.probability(probe) == fuzzy.probability(probe)

    def test_model_dict_survives_byte_exactly(self, fuzzy, binary_path):
        # The binary format keeps count-table insertion order exactly
        # (the JSON file re-sorts keys on disk), so the loaded meter's
        # snapshot must reproduce the original's serialised bytes.
        via_binary = load_meter(binary_path)
        assert json.dumps(via_binary.to_dict()) == json.dumps(
            fuzzy.to_dict()
        )

    def test_agrees_with_json_path(self, fuzzy, binary_path, tmp_path):
        json_path = str(tmp_path / "fuzzy.json")
        save_meter(fuzzy, json_path, fmt="json")
        via_json = load_meter(json_path)
        via_binary = load_meter(binary_path)
        # Same model content (dict equality is order-insensitive) and
        # identical scores either way.
        assert via_binary.to_dict() == via_json.to_dict()
        for probe in PROBES:
            assert via_binary.probability(probe) == via_json.probability(
                probe
            )

    def test_save_load_save_is_byte_identical(self, binary_path,
                                              tmp_path):
        second = str(tmp_path / "again.bin")
        save_meter(load_meter(binary_path), second, fmt="binary")
        with open(binary_path, "rb") as handle:
            original = handle.read()
        with open(second, "rb") as handle:
            round_tripped = handle.read()
        assert round_tripped == original

    def test_loaded_meter_still_updates(self, binary_path):
        loaded = load_meter(binary_path)
        before = loaded.probability("brandnew99")
        loaded.update("brandnew99", count=5)
        assert loaded.probability("brandnew99") > before

    def test_extensions_survive(self, tmp_path):
        from repro.core.meter import FuzzyPSMConfig
        meter = FuzzyPSM.train(
            PASSWORDS, PASSWORDS,
            config=FuzzyPSMConfig(allow_reverse=True, allow_allcaps=True),
        )
        path = str(tmp_path / "ext.bin")
        save_meter(meter, path, fmt="binary")
        loaded = load_meter(path)
        assert loaded.config.allow_reverse
        assert loaded.config.allow_allcaps
        assert json.dumps(loaded.to_dict()) == json.dumps(meter.to_dict())

    def test_lone_surrogate_survives(self, tmp_path):
        # JSON's "\ud800" escape decodes to a lone surrogate, so an
        # /accept or an update can put one into a terminal.
        meter = FuzzyPSM.train(PASSWORDS, PASSWORDS)
        meter.update("x\ud800y1")
        path = str(tmp_path / "surrogate.bin")
        save_meter(meter, path, fmt="binary")
        loaded = load_meter(path)
        assert loaded.to_dict() == meter.to_dict()
        for probe in [*PROBES, "x\ud800y1", "\ud800"]:
            assert loaded.probability(probe) == meter.probability(probe)
        assert loaded.probability("x\ud800y1") > 0.0


class TestFormat:
    def test_magic_and_header(self, binary_path):
        with open(binary_path, "rb") as handle:
            blob = handle.read()
        assert blob.startswith(BINARY_MAGIC)
        header_length = struct.unpack(
            "<Q", blob[len(BINARY_MAGIC):len(BINARY_MAGIC) + 8]
        )[0]
        start = len(BINARY_MAGIC) + 8
        header = json.loads(blob[start:start + header_length])
        assert header["binary_format_version"] == BINARY_FORMAT_VERSION
        assert header["kind"] == "fuzzypsm"
        assert {section["name"] for section in header["sections"]} >= {
            "base_blob", "base_lens", "structure_counts",
            "terminal_blob", "terminal_counts", "booleans", "leet",
        }

    def test_sections_are_aligned(self, binary_path):
        with open(binary_path, "rb") as handle:
            blob = handle.read()
        start = len(BINARY_MAGIC) + 8
        header_length = struct.unpack(
            "<Q", blob[len(BINARY_MAGIC):start]
        )[0]
        header = json.loads(blob[start:start + header_length])
        for section in header["sections"]:
            assert section["offset"] % 8 == 0, section

    def test_load_meter_sniffs_format(self, fuzzy, tmp_path):
        # Same extension, different encodings: dispatch is by content.
        json_path = str(tmp_path / "a.model")
        binary_path = str(tmp_path / "b.model")
        save_meter(fuzzy, json_path)
        save_meter(fuzzy, binary_path, fmt="binary")
        assert isinstance(load_meter(json_path), FuzzyPSM)
        assert isinstance(load_meter(binary_path), FuzzyPSM)

    def test_unknown_format_rejected(self, fuzzy, tmp_path):
        with pytest.raises(ValueError, match="unknown model format"):
            save_meter(fuzzy, str(tmp_path / "x"), fmt="msgpack")

    def test_non_binary_persistable_meter_rejected(self, tmp_path):
        from repro.meters.pcfg import PCFGMeter
        meter = PCFGMeter.train(PASSWORDS)
        with pytest.raises(TypeError, match="binary"):
            save_meter(meter, str(tmp_path / "pcfg.bin"), fmt="binary")


def _shorten(sections, name):
    sections[name] = array("q", [value - 1 for value in sections[name]])


def _drop_last(sections, name):
    sections[name] = sections[name][:-1]


def _append(sections, **tails):
    for name, value in tails.items():
        sections[name].append(value)


def _corrupt(path: str, tmp_path, blob: bytes) -> str:
    out = str(tmp_path / "corrupt.bin")
    with open(out, "wb") as handle:
        handle.write(blob)
    return out


def _rewrite_header(blob: bytes, edit) -> bytes:
    """``blob`` with ``edit(header)`` applied to its header object.

    The edited header is written compactly and padded with spaces to
    the old byte length, so every section offset stays put.
    """
    start = len(BINARY_MAGIC) + 8
    header_length = struct.unpack("<Q", blob[len(BINARY_MAGIC):start])[0]
    header = json.loads(blob[start:start + header_length])
    edit(header)
    new_header = json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    assert len(new_header) <= header_length
    return (blob[:start] + new_header.ljust(header_length, b" ")
            + blob[start + header_length:])


class TestErrorPaths:
    def _bytes(self, binary_path) -> bytes:
        with open(binary_path, "rb") as handle:
            return handle.read()

    @pytest.mark.parametrize("cut", ["magic", "header_len", "header",
                                     "payload"])
    def test_truncations_rejected(self, binary_path, tmp_path, cut):
        blob = self._bytes(binary_path)
        stop = {
            "magic": 4,
            "header_len": len(BINARY_MAGIC) + 3,
            "header": len(BINARY_MAGIC) + 8 + 10,
            "payload": len(blob) - 5,
        }[cut]
        path = _corrupt(binary_path, tmp_path, blob[:stop])
        with pytest.raises(ValueError, match="not a valid"):
            load_meter(path)

    def test_empty_file_rejected(self, tmp_path):
        path = str(tmp_path / "empty.bin")
        open(path, "wb").close()
        with pytest.raises(ValueError):
            load_meter(path)

    def test_garbage_header_rejected(self, binary_path, tmp_path):
        blob = self._bytes(binary_path)
        start = len(BINARY_MAGIC) + 8
        mangled = blob[:start] + b"\xff" * 16 + blob[start + 16:]
        path = _corrupt(binary_path, tmp_path, mangled)
        with pytest.raises(ValueError, match="not a valid"):
            load_meter(path)

    def test_future_binary_version_rejected(self, binary_path,
                                            tmp_path):
        mangled = _rewrite_header(
            self._bytes(binary_path),
            lambda header: header.update(binary_format_version=9),
        )
        path = _corrupt(binary_path, tmp_path, mangled)
        with pytest.raises(ValueError, match="version"):
            load_meter(path)

    @pytest.mark.parametrize("section,dtype", [
        ("base_lens", "f64"), ("base_blob", "bytes"),
    ], ids=["f64", "bytes"])
    def test_unwritten_dtype_rejected(self, binary_path, tmp_path,
                                      section, dtype):
        # No meter writes these dtypes; a directory naming one is not
        # a model this build can read.
        def retag(header):
            entry, = [entry for entry in header["sections"]
                      if entry["name"] == section]
            entry["dtype"] = dtype

        mangled = _rewrite_header(self._bytes(binary_path), retag)
        path = _corrupt(binary_path, tmp_path, mangled)
        with pytest.raises(ValueError, match="not a valid binary meter"):
            load_meter(path)

    @pytest.mark.parametrize("mutate", [
        # Every word one character shorter: the blob is sliced wrongly.
        pytest.param(lambda s: _shorten(s, "terminal_lens"),
                     id="terminal_lens"),
        pytest.param(lambda s: _shorten(s, "base_lens"), id="base_lens"),
        # One count missing: zip would drop the last entry.
        pytest.param(lambda s: _drop_last(s, "structure_counts"),
                     id="structure_counts"),
        pytest.param(lambda s: _drop_last(s, "terminal_counts"),
                     id="terminal_counts"),
        # A structure reaching past the symbols (with its own count):
        # slicing would give it the empty tuple.
        pytest.param(lambda s: _append(s, structure_lens=2,
                                       structure_counts=1),
                     id="structure_lens"),
        pytest.param(lambda s: s["terminal_counts"].__setitem__(0, -1),
                     id="negative_count"),
        # A rule column with a count too many would be read short.
        pytest.param(lambda s: _append(s, booleans=1), id="booleans"),
        pytest.param(lambda s: _append(s, leet=1), id="leet"),
    ])
    def test_inconsistent_columns_rejected(self, tmp_path, mutate):
        # Each of these loaded silently (or raised a bare ValueError
        # that named no file) and gave wrong scores.
        meter = FuzzyPSM.train(
            base_dictionary=["dragon", "monkey", "password"],
            training=["password1", "dragon12", "monkey!", "p@ssword"],
        )
        path = str(tmp_path / "model.bin")
        save_meter(meter, path, fmt="binary")
        with open(path, "rb") as handle:
            header = read_header(memoryview(handle.read()), BINARY_MAGIC)
        meta, sections = meter.to_buffers()
        mutate(sections)
        fields = {key: value for key, value in header.items()
                  if key != "sections"}
        with open(path, "wb") as handle:
            handle.write(pack(BINARY_MAGIC, fields, sections))
        with pytest.raises(ValueError, match="not a valid binary meter"):
            load_meter(path)

    @pytest.mark.parametrize("fmt", ["json", "binary"])
    @pytest.mark.parametrize("field,value", [
        ("parse_cache_size", -5), ("parse_cache_size", 0),
        ("parse_cache_size", "x"), ("parse_cache_size", None),
        ("parse_cache_size", True), ("min_base_length", 0),
        ("allow_reverse", "false"),
    ])
    def test_malformed_config_rejected(self, fuzzy, tmp_path, fmt, field,
                                       value):
        # Each of these loaded: a bad size made every batch score raise
        # a bare TypeError, and "false" switched the reverse rule on.
        path = str(tmp_path / f"model.{fmt}")
        save_meter(fuzzy, path, fmt=fmt)
        if fmt == "json":
            with open(path, encoding="utf-8") as handle:
                document = json.load(handle)
            document["model"]["config"][field] = value
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(document, handle)
        else:
            with open(path, "rb") as handle:
                header = read_header(memoryview(handle.read()), BINARY_MAGIC)
            meta, sections = fuzzy.to_buffers()
            meta["config"][field] = value
            fields = {key: entry for key, entry in header.items()
                      if key != "sections"}
            fields["meta"] = meta
            with open(path, "wb") as handle:
                handle.write(pack(BINARY_MAGIC, fields, sections))
        with pytest.raises(ValueError, match=f"FuzzyPSMConfig.{field}"):
            load_meter(path)

    def test_invalid_utf8_blob_rejected(self, binary_path, tmp_path):
        blob = bytearray(self._bytes(binary_path))
        header = read_header(memoryview(bytes(blob)), BINARY_MAGIC)
        section, = [entry for entry in header["sections"]
                    if entry["name"] == "base_blob"]
        blob[section["offset"]] = 0xFF  # never valid in UTF-8
        path = _corrupt(binary_path, tmp_path, bytes(blob))
        with pytest.raises(ValueError, match="not a valid binary meter"):
            load_meter(path)

    def test_json_loader_still_rejects_json_garbage(self, tmp_path):
        path = str(tmp_path / "garbage.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        with pytest.raises(ValueError):
            load_meter(path)
