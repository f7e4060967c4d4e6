"""Tests for the command-line interface (python -m repro)."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSurvey:
    def test_prints_headlines(self, capsys):
        code, out, _ = run_cli(capsys, "survey")
        assert code == 0
        assert "77.38%" in out


class TestScenarios:
    def test_lists_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "scenarios")
        assert code == 0
        assert "ideal-csdn" in out
        assert "13(q)" in out
        assert out.count("\n") >= 18


class TestGenerateAndStats:
    def test_generate_writes_file(self, capsys, tmp_path):
        path = str(tmp_path / "csdn.txt")
        code, out, _ = run_cli(
            capsys, "generate", "csdn", "--total", "500",
            "--output", path,
        )
        assert code == 0
        assert "500 entries" in out
        assert (tmp_path / "csdn.txt").exists()

    def test_stats_on_generated_corpus(self, capsys, tmp_path):
        path = str(tmp_path / "csdn.txt")
        run_cli(capsys, "generate", "csdn", "--total", "500",
                "--output", path)
        code, out, _ = run_cli(capsys, "stats", path, "--top", "5")
        assert code == 0
        assert "Top-5 passwords" in out
        assert "Character composition" in out
        assert "Length distribution" in out


class TestTrainMeasureGuess:
    @pytest.fixture()
    def corpora(self, capsys, tmp_path):
        base = str(tmp_path / "base.txt")
        training = str(tmp_path / "train.txt")
        run_cli(capsys, "generate", "tianya", "--total", "2000",
                "--output", base)
        run_cli(capsys, "generate", "csdn", "--total", "1000",
                "--output", training)
        return base, training

    def test_train_fuzzy_and_measure(self, capsys, tmp_path, corpora):
        base, training = corpora
        model = str(tmp_path / "model.json")
        code, out, _ = run_cli(
            capsys, "train", "--training", training, "--base", base,
            "--output", model,
        )
        assert code == 0
        assert "fuzzyPSM" in out
        code, out, _ = run_cli(
            capsys, "measure", "--model", model, "123456789", "zzz!!!",
        )
        assert code == 0
        assert "123456789" in out
        assert "probability" in out

    def test_train_fuzzy_requires_base(self, capsys, tmp_path, corpora):
        _, training = corpora
        code, _, err = run_cli(
            capsys, "train", "--training", training,
            "--output", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "--base" in err

    def test_train_pcfg_and_guess(self, capsys, tmp_path, corpora):
        _, training = corpora
        model = str(tmp_path / "pcfg.json")
        code, _, _ = run_cli(
            capsys, "train", "--training", training, "--kind", "pcfg",
            "--output", model,
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "guess", "--model", model, "-n", "10",
        )
        assert code == 0
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 10
        assert lines[0].startswith("1\t")

    def test_train_fuzzy_with_extensions(self, capsys, tmp_path,
                                         corpora):
        base, training = corpora
        model = str(tmp_path / "ext.json")
        code, _, _ = run_cli(
            capsys, "train", "--training", training, "--base", base,
            "--allow-reverse", "--allow-allcaps", "--output", model,
        )
        assert code == 0
        from repro.persistence import load_meter
        loaded = load_meter(model)
        assert loaded.config.allow_reverse
        assert loaded.config.allow_allcaps

    def test_train_markov(self, capsys, tmp_path, corpora):
        _, training = corpora
        model = str(tmp_path / "markov.json")
        code, out, _ = run_cli(
            capsys, "train", "--training", training, "--kind", "markov",
            "--order", "2", "--smoothing", "laplace",
            "--output", model,
        )
        assert code == 0
        assert "Markov" in out


class TestMeters:
    SEED_KINDS = (
        "fuzzypsm", "ideal", "keepsm", "markov", "nist", "pcfg",
        "zxcvbn",
    )

    def test_lists_registered_meters(self, capsys):
        code, out, _ = run_cli(capsys, "meters")
        assert code == 0
        assert "registered meters" in out
        for kind in self.SEED_KINDS:
            assert kind in out
        # The capability column uses the registry's value spellings.
        assert "batch-scorable" in out
        assert "persistable" in out

    def test_json_listing(self, capsys):
        import json as json_module
        code, out, _ = run_cli(capsys, "meters", "--format", "json")
        assert code == 0
        listing = json_module.loads(out)
        assert set(self.SEED_KINDS) <= set(listing)
        fuzzy = listing["fuzzypsm"]
        assert fuzzy["capabilities"] == [
            "batch-scorable", "binary-persistable",
            "persistable", "stream-trainable", "trainable", "updatable",
        ]
        assert fuzzy["requires_base_dictionary"] is True
        assert listing["zxcvbn"]["requires_base_dictionary"] is False
        assert all(entry["summary"] for entry in listing.values())


class TestExperiment:
    def test_small_scenario_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "ideal-csdn",
            "--corpus-size", "2000", "--base-corpus-size", "8000",
            "--min-frequency", "2",
        )
        assert code == 0
        assert "13(h)" in out
        assert "ranking:" in out
        assert "fuzzyPSM" in out

    def test_seed_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "ideal-csdn",
            "--corpus-size", "2000", "--base-corpus-size", "8000",
            "--min-frequency", "2", "--seeds", "1,2",
        )
        assert code == 0
        assert "across seeds [1, 2]" in out
        assert "mean rank" in out

    def test_seed_sweep_validation(self, capsys):
        code, _, err = run_cli(
            capsys, "experiment", "ideal-csdn", "--seeds", "a,b",
        )
        assert code == 2
        assert "comma-separated integers" in err


class TestCoachAttackProfile:
    @pytest.fixture()
    def trained_model(self, capsys, tmp_path):
        base = str(tmp_path / "base.txt")
        training = str(tmp_path / "train.txt")
        model = str(tmp_path / "model.json")
        run_cli(capsys, "generate", "rockyou", "--total", "3000",
                "--output", base)
        run_cli(capsys, "generate", "yahoo", "--total", "1500",
                "--output", training)
        run_cli(capsys, "train", "--training", training, "--base",
                base, "--output", model)
        return model, training

    def test_coach(self, capsys, trained_model):
        model, _ = trained_model
        code, out, _ = run_cli(
            capsys, "coach", "--model", model,
            "--target-bits", "18", "123456",
        )
        assert code == 0
        assert "original" in out or "already" in out

    def test_attack_simulate(self, capsys, trained_model, tmp_path):
        model, _ = trained_model
        victims = str(tmp_path / "victims.txt")
        run_cli(capsys, "generate", "yahoo", "--total", "1000",
                "--seed", "3", "--output", victims)
        code, out, _ = run_cli(
            capsys, "attack", "simulate", "--model", model,
            "--victims", victims, "--lockout", "50",
            "--hash", "bcrypt", "--max-guesses", "20000",
        )
        assert code == 0
        assert "online" in out
        assert "offline (bcrypt" in out

    def test_attack_enumerate(self, capsys, trained_model):
        model, _ = trained_model
        code, out, err = run_cli(
            capsys, "attack", "enumerate", "--model", model,
            "-n", "25", "--beam-width", "500", "--stats",
        )
        assert code == 0
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 25
        probabilities = [float(line.split("\t")[1]) for line in lines]
        assert probabilities == sorted(probabilities, reverse=True)
        assert "pops=" in err and "dropped_mass=" in err

    def test_attack_masks(self, capsys, trained_model, tmp_path):
        model, _ = trained_model
        mask_file = str(tmp_path / "masks.json")
        code, out, _ = run_cli(
            capsys, "attack", "masks", "--model", model,
            "--source-guesses", "500", "--top", "5",
            "--output", mask_file,
        )
        assert code == 0
        assert "top masks" in out
        assert "substitution rules" in out
        from repro.persistence import load_mask_set
        mask_set = load_mask_set(mask_file)
        assert mask_set.entries
        assert mask_set.policy == "efficiency"

    def test_attack_masks_export(self, capsys, trained_model, tmp_path):
        model, _ = trained_model
        mask_file = str(tmp_path / "masks.json")
        export_dir = str(tmp_path / "hashcat")
        code, out, _ = run_cli(
            capsys, "attack", "masks", "--model", model,
            "--source-guesses", "500",
            "--output", mask_file, "--export", export_dir,
        )
        assert code == 0
        assert "hashcat hcmask ->" in out
        from repro.attacks import read_hcmask, read_rules
        from repro.persistence import load_mask_set
        mask_set = load_mask_set(mask_file)
        import os as os_module
        files = sorted(os_module.listdir(export_dir))
        hcmask = [f for f in files if f.endswith(".hcmask")]
        assert hcmask, files
        masks = read_hcmask(
            os_module.path.join(export_dir, hcmask[0])
        )
        assert masks == [entry.mask for entry in mask_set.entries]
        rule_files = [f for f in files if f.endswith(".rule")]
        if mask_set.rules:
            rules = read_rules(
                os_module.path.join(export_dir, rule_files[0])
            )
            assert rules == [r.rule for r in mask_set.rules]

    def test_attack_crossover(self, capsys, trained_model, tmp_path):
        model, training = trained_model
        baseline = str(tmp_path / "pcfg.json")
        run_cli(capsys, "train", "--kind", "pcfg",
                "--training", training, "--output", baseline)
        victims = str(tmp_path / "cross-victims.txt")
        run_cli(capsys, "generate", "yahoo", "--total", "800",
                "--seed", "5", "--output", victims)
        code, out, _ = run_cli(
            capsys, "attack", "crossover", "--model", model,
            "--baseline", baseline, "--victims", victims,
            "--online-budget", "1000",
            "--offline-budget", "10000000",
        )
        assert code == 0
        assert "online cracked fraction" in out
        assert "offline cracked fraction" in out
        assert "crossover" in out
        assert "fuzzyPSM" in out
        assert "PCFG" in out

    def test_profile(self, capsys, trained_model):
        _, training = trained_model
        code, out, _ = run_cli(
            capsys, "profile", training, "--online-budget", "100",
        )
        assert code == 0
        assert "min-entropy" in out
        assert "lambda_100" in out


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["no-such-command"])

    def test_unknown_dataset_exits(self):
        with pytest.raises(SystemExit):
            main(["generate", "linkedin", "--output", "x.txt"])

    @pytest.mark.parametrize("command", [
        ["train", "--training", "t.txt", "--base", "b.txt",
         "--output", "m.json"],
        ["profile", "--base", "b.txt", "--train", "t.txt",
         "--stream", "s.txt"],
    ], ids=["train", "profile"])
    @pytest.mark.parametrize("option", [
        ["--jobs", "2"], ["--parse-cache-size", "0"],
        ["--parse-cache-size", "-5"],
    ], ids=["jobs", "cache-size-0", "cache-size-negative"])
    def test_rejected_training_options_exit_2(self, command, option):
        # Rejected before any file is read: none of these exists.
        with pytest.raises(SystemExit) as exited:
            main(command + option)
        assert exited.value.code == 2

    @pytest.mark.parametrize("option", [
        ["--fix"], ["--cache", "lint-cache.json"], ["--no-cache"],
    ], ids=["fix", "cache", "no-cache"])
    def test_removed_lint_options_exit_2(self, option, tmp_path,
                                         monkeypatch):
        # Rejected before linting: no file is rewritten or written.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.py").write_text("def f(x=[]):\n    return x\n")
        with pytest.raises(SystemExit) as exited:
            main(["lint", *option, "a.py"])
        assert exited.value.code == 2
        assert [path.name for path in tmp_path.iterdir()] == ["a.py"]
        assert (tmp_path / "a.py").read_text() == \
            "def f(x=[]):\n    return x\n"

    def test_lint_jobs_still_pools(self, capsys, tmp_path):
        for name in ("a.py", "b.py"):
            (tmp_path / name).write_text("VALUE = 1\n")
        code, _, _ = run_cli(capsys, "lint", "--jobs", "2", str(tmp_path))
        assert code == 0


class TestServeModelSpecs:
    """``repro serve --model [NAME=]PATH`` spec parsing and validation."""

    def test_named_and_bare_specs(self):
        from repro.cli import _parse_model_spec

        assert _parse_model_spec("rockyou=/tmp/a.json") == \
            ("rockyou", "/tmp/a.json")
        assert _parse_model_spec("/models/yahoo.json") == \
            ("yahoo", "/models/yahoo.json")
        assert _parse_model_spec("model.bin") == ("model", "model.bin")
        # '=' inside a path (no name before it) stays a bare path.
        assert _parse_model_spec("=x.json")[1] == "=x.json"
        # A path-looking prefix is not a name.
        assert _parse_model_spec("/a/b=c.json") == \
            ("b=c", "/a/b=c.json")

    def test_invalid_model_name_exits_2(self, capsys, tmp_path):
        from repro.core.meter import FuzzyPSM
        from repro.persistence import save_meter
        from tests.conftest import BASE_DICTIONARY, TRAINING_PASSWORDS

        path = str(tmp_path / "bad name.json")
        save_meter(
            FuzzyPSM.train(BASE_DICTIONARY, TRAINING_PASSWORDS), path
        )
        # The bare path's stem ("bad name") is not a valid model name.
        code, _, err = run_cli(
            capsys, "serve", "--model", path, "--port", "0",
        )
        assert code == 2
        assert "bad name" in err
