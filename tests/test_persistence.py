"""Unit tests for meter serialisation (save_meter / load_meter)."""

import json

import pytest

from repro.core import FuzzyPSM
from repro.meters.markov import MarkovMeter, Smoothing
from repro.meters.pcfg import PCFGMeter
from repro.persistence import (
    load_meter,
    meter_from_dict,
    meter_to_dict,
    save_meter,
)

PASSWORDS = [
    "password", "password", "password123", "Password123", "p@ssw0rd",
    "123456", "123456", "dragon1", "letmein!", "qwerty12",
]


@pytest.fixture(scope="module")
def fuzzy():
    return FuzzyPSM.train(base_dictionary=PASSWORDS, training=PASSWORDS)


@pytest.fixture(scope="module")
def pcfg():
    return PCFGMeter.train(PASSWORDS)


@pytest.fixture(scope="module")
def markov():
    return MarkovMeter.train(PASSWORDS, order=2,
                             smoothing=Smoothing.LAPLACE)


PROBES = ["password", "password123", "P@ssw0rd9", "dragon1", "zzz!!!"]


class TestRoundTrips:
    def test_fuzzy_round_trip(self, fuzzy, tmp_path):
        path = str(tmp_path / "fuzzy.json")
        save_meter(fuzzy, path)
        loaded = load_meter(path)
        assert isinstance(loaded, FuzzyPSM)
        for probe in PROBES:
            assert loaded.probability(probe) == fuzzy.probability(probe)

    def test_pcfg_round_trip(self, pcfg, tmp_path):
        path = str(tmp_path / "pcfg.json")
        save_meter(pcfg, path)
        loaded = load_meter(path)
        assert isinstance(loaded, PCFGMeter)
        for probe in PROBES:
            assert loaded.probability(probe) == pcfg.probability(probe)

    def test_markov_round_trip(self, markov, tmp_path):
        path = str(tmp_path / "markov.json")
        save_meter(markov, path)
        loaded = load_meter(path)
        assert isinstance(loaded, MarkovMeter)
        assert loaded.order == markov.order
        assert loaded.smoothing is Smoothing.LAPLACE
        for probe in PROBES:
            assert loaded.probability(probe) == markov.probability(probe)

    def test_markov_control_characters_survive_json(self, markov,
                                                    tmp_path):
        # Contexts contain the \x02 START padding; JSON must keep them.
        path = str(tmp_path / "markov.json")
        save_meter(markov, path)
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        contexts = document["model"]["transitions"][2]
        assert any("\x02" in context for context in contexts)

    def test_fuzzy_guesses_survive_round_trip(self, fuzzy, tmp_path):
        path = str(tmp_path / "fuzzy.json")
        save_meter(fuzzy, path)
        loaded = load_meter(path)
        original = list(fuzzy.iter_guesses(limit=30))
        restored = list(loaded.iter_guesses(limit=30))
        assert original == restored

    def test_loaded_fuzzy_still_updates(self, fuzzy, tmp_path):
        path = str(tmp_path / "fuzzy.json")
        save_meter(fuzzy, path)
        loaded = load_meter(path)
        before = loaded.probability("brandnew99")
        loaded.update("brandnew99", count=5)
        assert loaded.probability("brandnew99") > before
        # The original is untouched.
        assert fuzzy.probability("brandnew99") == before


class TestDocumentFormat:
    def test_kind_tags(self, fuzzy, pcfg, markov):
        assert meter_to_dict(fuzzy)["kind"] == "fuzzypsm"
        assert meter_to_dict(pcfg)["kind"] == "pcfg"
        assert meter_to_dict(markov)["kind"] == "markov"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            meter_from_dict(
                {"format_version": 1, "kind": "oracle", "model": {}}
            )

    def test_wrong_version_rejected(self, fuzzy):
        document = meter_to_dict(fuzzy)
        document["format_version"] = 999
        with pytest.raises(ValueError):
            meter_from_dict(document)

    def test_unsupported_meter_type_rejected(self):
        from repro.meters.nist import NISTMeter
        with pytest.raises(TypeError):
            meter_to_dict(NISTMeter())

    def test_document_is_plain_json(self, fuzzy):
        # Must survive a strict JSON round trip (no exotic types).
        document = meter_to_dict(fuzzy)
        restored = json.loads(json.dumps(document))
        clone = meter_from_dict(restored)
        assert clone.probability("password") == fuzzy.probability(
            "password"
        )

    def test_envelope_carries_capability_list(self, fuzzy, pcfg):
        assert meter_to_dict(fuzzy)["capabilities"] == [
            "batch-scorable", "binary-persistable", "parallel-scorable",
            "persistable", "stream-trainable", "trainable", "updatable",
        ]
        assert meter_to_dict(pcfg)["capabilities"] == [
            "batch-scorable", "persistable", "trainable", "updatable",
        ]


class TestDeterministicBytes:
    def test_save_load_save_is_byte_identical(self, fuzzy, markov,
                                              tmp_path):
        for name, meter in [("fuzzy", fuzzy), ("markov", markov)]:
            first = str(tmp_path / f"{name}-1.json")
            second = str(tmp_path / f"{name}-2.json")
            save_meter(meter, first)
            save_meter(load_meter(first), second)
            with open(first, "rb") as handle:
                original = handle.read()
            with open(second, "rb") as handle:
                round_tripped = handle.read()
            assert round_tripped == original

    def test_keys_are_sorted(self, pcfg, tmp_path):
        path = str(tmp_path / "pcfg.json")
        save_meter(pcfg, path)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        assert text.endswith("\n")
        document = json.loads(text)
        assert text == json.dumps(document, sort_keys=True) + "\n"


class TestModelsSavedByEarlierVersions:
    """Model files written while the trie matcher was still an option.

    Earlier versions saved ``use_compiled_trie`` in every fuzzyPSM
    config, JSON and FPSMBIN1 alike: ``true`` by default, ``false``
    from ``repro train --no-compile``.  The option is gone; such files
    must still load, score bit-identically to the same meter saved by
    the current code, and re-save without the key.
    """

    PROBES = PROBES + ["", "Dragon1", "p@ssword123", "letmein!!", "x"]

    @staticmethod
    def _save_as_before(monkeypatch, value):
        """Make saves write the retired key, exactly where it was."""
        to_dict, to_buffers = FuzzyPSM.to_dict, FuzzyPSM.to_buffers

        def legacy_dict(self):
            data = to_dict(self)
            data["config"]["use_compiled_trie"] = value
            return data

        def legacy_buffers(self):
            meta, sections = to_buffers(self)
            meta["config"]["use_compiled_trie"] = value
            return meta, sections

        monkeypatch.setattr(FuzzyPSM, "to_dict", legacy_dict)
        monkeypatch.setattr(FuzzyPSM, "to_buffers", legacy_buffers)

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("fmt", ["json", "binary"])
    def test_loads_scores_identically_and_resaves_without_key(
        self, fuzzy, tmp_path, monkeypatch, fmt, value
    ):
        current = tmp_path / "current"
        save_meter(fuzzy, str(current), fmt=fmt)
        legacy = tmp_path / "legacy"
        with monkeypatch.context() as patch:
            self._save_as_before(patch, value)
            save_meter(fuzzy, str(legacy), fmt=fmt)
        assert b"use_compiled_trie" in legacy.read_bytes()

        old, new = load_meter(str(legacy)), load_meter(str(current))
        assert old.config == new.config
        assert [old.probability(p) for p in self.PROBES] == \
            [new.probability(p) for p in self.PROBES]
        assert old.probability_many(self.PROBES) == \
            new.probability_many(self.PROBES)

        resaved = tmp_path / "resaved"
        save_meter(old, str(resaved), fmt=fmt)
        assert b"use_compiled_trie" not in resaved.read_bytes()
        assert resaved.read_bytes() == current.read_bytes()


class TestLoadErrorPaths:
    def test_truncated_file(self, pcfg, tmp_path):
        path = str(tmp_path / "pcfg.json")
        save_meter(pcfg, path)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text[: len(text) // 2])
        with pytest.raises(ValueError, match="not a valid meter file"):
            load_meter(path)

    def test_non_object_document(self, tmp_path):
        path = str(tmp_path / "list.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("[1, 2, 3]\n")
        with pytest.raises(ValueError, match="expected a JSON object"):
            load_meter(path)

    def test_unknown_kind_names_the_known_ones(self):
        with pytest.raises(ValueError, match="oracle.*known.*fuzzypsm"):
            meter_from_dict(
                {"format_version": 1, "kind": "oracle", "model": {}}
            )

    def test_non_string_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown meter kind"):
            meter_from_dict(
                {"format_version": 1, "kind": 7, "model": {}}
            )

    def test_non_persistable_kind_rejected(self):
        # zxcvbn is registered, but without the persistable capability:
        # the message must say so rather than claim the kind is unknown.
        with pytest.raises(ValueError,
                           match="without the.*persistable capability"):
            meter_from_dict(
                {"format_version": 1, "kind": "zxcvbn", "model": {}}
            )

    def test_version_checked_before_kind(self):
        with pytest.raises(ValueError, match="format version"):
            meter_from_dict({"kind": "oracle", "model": {}})
