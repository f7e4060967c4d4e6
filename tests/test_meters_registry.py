"""Tests for the capability-based meter registry (DESIGN.md §10).

Covers the registration contract (declared capabilities are verified,
kinds are unique), lookup/resolution, the unified ``update`` verb,
batch-scoring exactness, and the headline
plugin promise: a toy meter registered in a test participates in
``repro meters``, the CLI ``--kind`` choices and persistence with no
other edits.
"""

from typing import Any, Dict, Iterable, List

import pytest

from repro.cli import main
from repro.meters import PCFGMeter
from repro.meters import registry
from repro.meters.base import Meter
from repro.meters.registry import (
    Capability,
    Persistable,
    TrainContext,
    Trainable,
    Updatable,
    register_meter,
)
from repro.persistence import load_meter, save_meter

SEED_KINDS = {
    "fuzzypsm", "ideal", "keepsm", "markov", "nist", "pcfg", "zxcvbn",
}


class TestCatalogue:
    def test_seed_kinds_registered(self):
        assert SEED_KINDS <= set(registry.meter_kinds())

    def test_specs_sorted_by_kind(self):
        kinds = list(registry.all_specs())
        assert kinds == sorted(kinds)

    def test_fuzzypsm_declares_full_lifecycle(self):
        spec = registry.get_spec("fuzzypsm")
        assert spec.capability_names() == [
            "binary-persistable",
            "persistable", "stream-trainable", "trainable", "updatable",
        ]
        assert spec.requires_base_dictionary

    def test_rule_based_meters_are_static(self):
        for kind in ("zxcvbn", "keepsm", "nist"):
            spec = registry.get_spec(kind)
            assert not spec.has(Capability.TRAINABLE)
            assert not spec.has(Capability.PERSISTABLE)

    def test_kinds_with_intersects_capabilities(self):
        trainable_persistable = registry.kinds_with(
            Capability.TRAINABLE, Capability.PERSISTABLE
        )
        assert trainable_persistable == ["fuzzypsm", "markov", "pcfg"]

    def test_resolve_kind_accepts_display_names(self):
        assert registry.resolve_kind("fuzzyPSM") == "fuzzypsm"
        assert registry.resolve_kind("FUZZYPSM") == "fuzzypsm"
        assert registry.resolve_kind("markov") == "markov"

    def test_resolve_unknown_kind_lists_registered(self):
        with pytest.raises(ValueError, match="unknown meter 'oracle'"):
            registry.resolve_kind("oracle")

    def test_spec_for_instance_class_and_subclass(self):
        spec = registry.get_spec("pcfg")
        assert registry.spec_for(PCFGMeter) is spec
        assert registry.spec_for(PCFGMeter.train(["abc1"])) is spec

        class LocalPCFG(PCFGMeter):
            pass

        assert registry.spec_for(LocalPCFG) is spec
        assert registry.spec_for(object()) is None

    def test_capability_protocols_are_runtime_checkable(self, pcfg_meter):
        assert isinstance(pcfg_meter, Trainable)
        assert isinstance(pcfg_meter, Updatable)
        assert isinstance(pcfg_meter, Persistable)


class TestRegistrationContract:
    def test_capability_declaration_is_verified(self):
        with pytest.raises(ValueError, match="does not define update"):
            @register_meter("liar", capabilities=(Capability.UPDATABLE,))
            class LiarMeter(Meter):  # lint-ok: FPM015 -- deliberately broken fixture: the test asserts the runtime registry rejects exactly this declaration
                def probability(self, password: str) -> float:
                    return 0.0
        assert "liar" not in registry.meter_kinds()

    def test_duplicate_kind_rejected(self):
        with pytest.raises(ValueError, match="duplicate meter kind"):
            @register_meter("pcfg")
            class ImpostorMeter(Meter):
                def probability(self, password: str) -> float:
                    return 0.0

    def test_kind_must_be_lowercase(self):
        with pytest.raises(ValueError, match="lowercase"):
            register_meter("PCFG")
        with pytest.raises(ValueError, match="lowercase"):
            register_meter("")

    def test_build_meter_requires_base_dictionary(self):
        with pytest.raises(ValueError, match="base dictionary"):
            registry.build_meter(
                "fuzzypsm", TrainContext(training=(("abc1", 1),))
            )

    def test_build_unknown_meter(self):
        with pytest.raises(ValueError, match="unknown meter"):
            registry.build_meter("oracle")


class TestUnifiedUpdateVerb:
    """``update`` is the one mutation verb every updatable meter has."""

    def test_update_raises_on_bad_input(self, fuzzy_meter):
        with pytest.raises(ValueError, match="empty"):
            fuzzy_meter.update("")
        with pytest.raises(ValueError, match="positive"):
            fuzzy_meter.update("abcdef1", count=0)


class TestBatchScoringExactness:
    """Overrides must stay bit-identical to the base-class loop."""

    PROBES = [
        "password", "password", "Password123", "p@ssw0rd", "123456",
        "zzz!!!", "qwerty12", "trendpw99", "123456",
    ]

    @pytest.fixture(scope="class")
    def context(self, base_dictionary, training_passwords):
        counts: Dict[str, int] = {}
        for password in training_passwords:
            counts[password] = counts.get(password, 0) + 1
        return TrainContext(
            training=tuple(counts.items()),
            base_dictionary=tuple(base_dictionary),
            dictionary=tuple(base_dictionary),
        )

    @pytest.mark.parametrize("kind", sorted(SEED_KINDS))
    def test_probability_many_matches_loop(self, kind, context):
        meter = registry.build_meter(kind, context)
        probes = self.PROBES
        assert meter.probability_many(probes) == Meter.probability_many(
            meter, probes
        )
        assert meter.entropy_many(probes) == Meter.entropy_many(
            meter, probes
        )

    def test_empty_batch(self, context):
        for kind in sorted(SEED_KINDS):
            meter = registry.build_meter(kind, context)
            assert meter.probability_many([]) == []


class ToyMeter(Meter):
    """A minimal plugin meter: relative frequency of trained passwords."""

    name = "Toy"

    def __init__(self, counts: Dict[str, int]) -> None:
        self._counts = dict(counts)

    @classmethod
    def train(cls, training: Iterable[Any]) -> "ToyMeter":
        counts: Dict[str, int] = {}
        for entry in training:
            password, count = (
                entry if isinstance(entry, tuple) else (entry, 1)
            )
            counts[password] = counts.get(password, 0) + count
        return cls(counts)

    def probability(self, password: str) -> float:
        total = sum(self._counts.values())
        if not total:
            return 0.0
        return self._counts.get(password, 0) / total

    def update(self, password: str, count: int = 1) -> None:
        self._counts[password] = self._counts.get(password, 0) + count

    def to_dict(self) -> Dict[str, Any]:
        return {"counts": self._counts}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ToyMeter":
        return cls(data["counts"])


# Registration is scoped to the plugin tests so the catalogue pins
# above (and every other module's) see exactly the seed meters.
@pytest.fixture(scope="module")
def toy_registered():
    register_meter(
        "toy",
        capabilities=(
            Capability.TRAINABLE,
            Capability.UPDATABLE,
            Capability.PERSISTABLE,
        ),
        summary="Unit-frequency lookup meter (test plugin)",
    )(ToyMeter)
    yield ToyMeter
    registry.unregister("toy")


def run_cli(capsys, *argv) -> "tuple":
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestToyMeterPluginEndToEnd:
    """Registering is the single integration point — no other edits."""

    def test_appears_in_catalogue_and_cli_listing(self, capsys,
                                                  toy_registered):
        assert "toy" in registry.meter_kinds()
        code, out, _ = run_cli(capsys, "meters")
        assert code == 0
        assert "toy" in out
        assert "Unit-frequency lookup meter" in out

    def test_trains_from_cli_and_round_trips(self, capsys, tmp_path,
                                             toy_registered):
        corpus = tmp_path / "train.txt"
        corpus.write_text("password\npassword\n123456\n")
        model = str(tmp_path / "toy.json")
        code, out, _ = run_cli(
            capsys, "train", "--training", str(corpus),
            "--kind", "toy", "--output", model,
        )
        assert code == 0
        assert "Toy" in out
        loaded = load_meter(model)
        assert isinstance(loaded, ToyMeter)
        assert loaded.probability("password") == 2 / 3

    def test_persistence_dispatch(self, tmp_path, toy_registered):
        meter = ToyMeter.train(["abc1", "abc1", "xyz2"])
        path = str(tmp_path / "toy.json")
        save_meter(meter, path)
        loaded = load_meter(path)
        assert loaded.probability("abc1") == meter.probability("abc1")

    def test_builds_through_registry(self, toy_registered):
        meter = registry.build_meter(
            "toy", TrainContext(training=(("abc1", 3),))
        )
        assert meter.probability("abc1") == 1.0
        meter.update("zzz9")
        assert meter.probability("abc1") == 0.75


class TestScoreTelemetry:
    """evaluate_meters times every meter's batch scoring by kind."""

    def test_per_meter_score_spans(self, base_dictionary,
                                   training_passwords):
        from repro import obs
        from repro.datasets import PasswordCorpus
        from repro.experiments.runner import evaluate_meters

        counts: Dict[str, int] = {}
        for password in training_passwords * 4:
            counts[password] = counts.get(password, 0) + 1
        test_corpus = PasswordCorpus(counts)
        context = TrainContext(
            training=tuple(counts.items()),
            base_dictionary=tuple(base_dictionary),
            dictionary=tuple(base_dictionary),
        )
        kinds = ["fuzzypsm", "pcfg", "markov", "zxcvbn", "keepsm", "nist"]
        meters: List[Meter] = [
            registry.build_meter(kind, context) for kind in kinds
        ]
        with obs.session() as telemetry:
            evaluate_meters(meters, test_corpus, min_frequency=1)
            histograms = telemetry.snapshot()["histograms"]
        assert histograms["experiment.score.seconds"]["count"] == 6
        for kind in kinds:
            name = f"experiment.score.{kind}.seconds"
            assert histograms[name]["count"] == 1, name
