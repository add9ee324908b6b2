import math
import os
import re
import shutil

import numpy as np
import pytest

from rnnlab import checkpoint as ckpt_mod
from rnnlab import cli, corpus, training


def write_config(path, corpus_dir, run_dir, **overrides):
    values = {
        "mode": "byte",
        "train_path": f"{corpus_dir}/train.txt",
        "valid_path": f"{corpus_dir}/valid.txt",
        "test_path": f"{corpus_dir}/test.txt",
        "layers": 1,
        "state_size": 24,
        "mogrifier_rounds": 2,
        "lr": 3e-3,
        "epochs": 2,
        "batch_size": 4,
        "window": 24,
        "val_batch_size": 4,
        "val_window": 24,
        "seed": 3,
        "checkpoint_path": f"{run_dir}/model.ckpt",
        "metrics_path": f"{run_dir}/metrics.log",
    }
    values.update(overrides)
    with open(path, "w") as fh:
        for key, value in values.items():
            fh.write(f"{key} = {value}\n")
    return path


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """One small trained checkpoint shared by the evaluation-side tests."""
    root = tmp_path_factory.mktemp("cli_run")
    corpus_dir = root / "corpus"
    corpus.write_splits(corpus_dir, total_bytes=20_000, seed=11)
    config_path = write_config(root / "run.cfg", corpus_dir, root)
    code = cli.main(["train", "--config", str(config_path)])
    assert code == 0
    return {
        "root": root,
        "corpus": corpus_dir,
        "config": config_path,
        "checkpoint": root / "model.ckpt",
        "metrics": root / "metrics.log",
    }


def field(line, name):
    return re.search(rf"{name}=(\S+)", line).group(1)


class TestUsage:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 1

    def test_train_requires_config(self, capsys):
        assert cli.main(["train"]) == 1
        assert "--config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("evaluate", "--seed"),
            ("dyneval", "--seed"),
            ("tune-temperature", "--seed"),
            ("tune-temperature", "--csv-out"),
            ("gradcheck", "--seed"),
            ("gradcheck", "--csv-out"),
            ("gradcheck", "--checkpoint"),
        ],
    )
    def test_flag_the_command_does_not_read(self, tmp_path, capsys, monkeypatch, command, flag):
        monkeypatch.setattr(cli.gradcheck, "gradient_check_suite", lambda: [])
        value = "3" if flag == "--seed" else str(tmp_path / "x")
        assert cli.main([command, "--config", str(tmp_path / "absent.cfg"), flag, value]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"usage error: unrecognized arguments: {flag} {value}\n"
        assert list(tmp_path.iterdir()) == []


class TestGradcheckCommand:
    def test_passing_suite_exits_zero(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli.gradcheck,
            "gradient_check_suite",
            lambda: [("cell_a", 3.2e-8), ("ladder_b", 1.1e-7)],
        )
        assert cli.main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "cell_a max_rel_err=3.200e-08 ok" in out
        assert "ladder_b max_rel_err=1.100e-07 ok" in out
        assert "checked 2 components, tolerance 1e-05" in out

    def test_failing_component_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli.gradcheck,
            "gradient_check_suite",
            lambda: [("cell_a", 1e-9), ("broken", 0.5)],
        )
        assert cli.main(["gradcheck"]) == 2
        out = capsys.readouterr().out
        assert "broken max_rel_err=5.000e-01 FAIL" in out


class TestTrainCommand:
    def test_artifacts_and_summary(self, trained_run, capsys):
        root = trained_run["root"]
        assert trained_run["checkpoint"].exists()
        assert (root / "model.ckpt.tta").exists()
        assert (root / "model.ckpt.vocab").exists()
        metrics = trained_run["metrics"].read_text().splitlines()
        assert metrics[0].startswith("# config layers=")
        assert any(line.startswith("# vocab_size=") for line in metrics)
        assert any(line.startswith("event=val ") for line in metrics)

    def test_checkpoint_loads_and_matches_config(self, trained_run):
        ckpt = ckpt_mod.load_checkpoint(trained_run["checkpoint"])
        assert ckpt.config.layers == 1
        assert ckpt.config.state_size == 24
        assert math.isfinite(ckpt.best_val_nats)

    def test_same_seed_byte_identical_metrics(self, trained_run, capsys):
        root = trained_run["root"]
        first = (root / "metrics.first").read_bytes() if (root / "metrics.first").exists() else None
        if first is None:
            shutil.copy(trained_run["metrics"], root / "metrics.first")
            code = cli.main(["train", "--config", str(trained_run["config"])])
            assert code == 0
            capsys.readouterr()
        assert trained_run["metrics"].read_bytes() == (root / "metrics.first").read_bytes()

    def test_missing_corpus_exits_one_without_checkpoint(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "bad.cfg", tmp_path / "nowhere", tmp_path,
        )
        assert cli.main(["train", "--config", str(config)]) == 1
        assert "train_path" in capsys.readouterr().err
        assert not (tmp_path / "model.ckpt").exists()

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("layers = 2\nwibble = 3\n")
        assert cli.main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "wibble" in err

    @pytest.mark.parametrize(
        "key, message",
        [
            ("layers", "layers must be >= 1"),
            ("state_size", "state_size must be >= 1"),
            ("keep_in", "keep_in must be in (0, 1]"),
            ("epochs", "epochs must be >= 1"),
        ],
    )
    def test_invalid_setting_is_a_config_error(self, trained_run, tmp_path, capsys, key, message):
        config = write_config(tmp_path / "bad.cfg", trained_run["corpus"], tmp_path, **{key: 0})
        assert cli.main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not (tmp_path / "model.ckpt").exists()

    def test_byte_missing_from_the_training_split_exits_one(self, tmp_path, capsys):
        # This corpus puts bytes '6' and 'L' into valid and '7' into test only.
        corpus.write_splits(tmp_path / "corpus", total_bytes=3000, seed=1)
        config = write_config(tmp_path / "run.cfg", tmp_path / "corpus", tmp_path)
        assert cli.main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("data error: valid split") and "valid.txt" in err
        assert "'6'" in err
        assert not (tmp_path / "model.ckpt").exists()

    def test_seed_override_lands_in_metrics_header(self, trained_run, tmp_path, capsys):
        run_dir = tmp_path
        config = write_config(
            tmp_path / "s.cfg", trained_run["corpus"], run_dir,
            epochs=1, max_train_seconds=0.5, seed=3,
        )
        assert cli.main(["train", "--config", str(config), "--seed", "99"]) == 0
        capsys.readouterr()
        header = (run_dir / "metrics.log").read_text()
        assert "# config seed=99" in header

    def test_checkpoint_override(self, trained_run, tmp_path, capsys):
        config = write_config(
            tmp_path / "c.cfg", trained_run["corpus"], tmp_path,
            epochs=1, max_train_seconds=0.5,
        )
        target = tmp_path / "elsewhere.bin"
        assert cli.main(["train", "--config", str(config), "--checkpoint", str(target)]) == 0
        capsys.readouterr()
        assert target.exists()

    def test_csv_export(self, trained_run, tmp_path, capsys):
        config = write_config(
            tmp_path / "v.cfg", trained_run["corpus"], tmp_path,
            epochs=1, val_interval=20,
        )
        csv_path = tmp_path / "out.csv"
        assert cli.main(["train", "--config", str(config), "--csv-out", str(csv_path)]) == 0
        capsys.readouterr()
        rows = csv_path.read_text().splitlines()
        assert rows[0] == "step,epoch,train_nats,val_nats,tta_nats,lr,restarts"
        assert len(rows) >= 2
        float(rows[1].split(",")[3])

    def test_divergence_beyond_budget_exits_two(self, trained_run, tmp_path, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise training.TrainingDiverged("diverged 3 times (limit 2)")

        monkeypatch.setattr(cli.training, "train", explode)
        config = write_config(tmp_path / "d.cfg", trained_run["corpus"], tmp_path)
        assert cli.main(["train", "--config", str(config)]) == 2
        assert "diverged" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_beats_uniform_baseline(self, trained_run, capsys):
        assert cli.main(["evaluate", "--config", str(trained_run["config"])]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("event=eval split=test ")
        nats = float(field(line, "nats_per_token"))
        assert 0 < nats < 4.2  # uniform over the byte inventory is ~4.3
        assert float(field(line, "perplexity")) == pytest.approx(math.exp(nats), rel=1e-12)
        assert int(field(line, "tokens")) > 900

    def test_repeat_runs_identical(self, trained_run, capsys):
        cli.main(["evaluate", "--config", str(trained_run["config"])])
        first = capsys.readouterr().out
        cli.main(["evaluate", "--config", str(trained_run["config"])])
        second = capsys.readouterr().out
        assert first == second

    def test_missing_checkpoint_exits_one(self, trained_run, tmp_path, capsys):
        assert (
            cli.main(
                ["evaluate", "--config", str(trained_run["config"]),
                 "--checkpoint", str(tmp_path / "ghost.ckpt")]
            )
            == 1
        )
        assert "ghost.ckpt" in capsys.readouterr().err

    def test_rejects_newer_checkpoint_version(self, trained_run, tmp_path, capsys):
        blob = trained_run["checkpoint"].read_bytes()
        newer = tmp_path / "future.ckpt"
        newer.write_bytes(blob[:4] + np.uint32(ckpt_mod.VERSION + 1).tobytes() + blob[8:])
        shutil.copy(str(trained_run["checkpoint"]) + ".vocab", str(newer) + ".vocab")
        code = cli.main(
            ["evaluate", "--config", str(trained_run["config"]), "--checkpoint", str(newer)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"version {ckpt_mod.VERSION + 1}" in err
        assert f"version {ckpt_mod.VERSION}" in err

    def test_truncated_checkpoint_exits_one_without_traceback(
        self, trained_run, tmp_path, capsys
    ):
        blob = trained_run["checkpoint"].read_bytes()
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(blob[: len(blob) // 2])
        code = cli.main(
            ["evaluate", "--config", str(trained_run["config"]), "--checkpoint", str(cut)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error:") and "cut.ckpt" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, split",
        [("evaluate", "test"), ("dyneval", "valid"), ("tune-temperature", "valid")],
    )
    def test_byte_missing_from_the_vocabulary_exits_one(
        self, trained_run, tmp_path, capsys, command, split
    ):
        strange = tmp_path / "strange.txt"
        strange.write_text("plain text with a bell \a in it\n")
        config = write_config(
            tmp_path / "strange.cfg", trained_run["corpus"], trained_run["root"],
            dyn_tune="true", **{f"{split}_path": strange},
        )
        assert cli.main([command, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {split} split") and "strange.txt" in err
        assert "'\\x07'" in err

    def test_csv_export(self, trained_run, tmp_path, capsys):
        csv_path = tmp_path / "eval.csv"
        cli.main(
            ["evaluate", "--config", str(trained_run["config"]), "--csv-out", str(csv_path)]
        )
        out = capsys.readouterr().out
        rows = csv_path.read_text().splitlines()
        assert rows[0] == "nats_per_token,perplexity,bpc,tokens,temperature"
        assert float(rows[1].split(",")[0]) == float(field(out, "nats_per_token"))


class TestShortSplits:
    @pytest.mark.parametrize(
        "command, split, key, rows",
        [
            ("train", "train", "batch_size", 32),
            ("train", "valid", "val_batch_size", 16),
            ("evaluate", "test", "eval_batch_size", 4),
            ("tune-temperature", "valid", "eval_batch_size", 4),
            ("dyneval", "test", "", 1),
        ],
    )
    def test_split_too_short_for_its_batch_exits_one(
        self, trained_run, tmp_path, capsys, command, split, key, rows
    ):
        # A split needs `rows` rows of an input and its target at least.
        text = (trained_run["corpus"] / "train.txt").read_text()
        short = tmp_path / "short.txt"
        short.write_text(text[: 2 * rows - 1])
        paths = {f"{split}_path": short}
        if split == "train":
            paths.update(valid_path=short, test_path=short)
        settings = {key: rows} if key else {}
        run_dir = tmp_path if command == "train" else trained_run["root"]
        config = write_config(
            tmp_path / "short.cfg", trained_run["corpus"], run_dir, **paths, **settings
        )
        assert cli.main([command, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {split} split") and "short.txt" in err
        assert f"has {2 * rows - 1} tokens" in err and f"at least {2 * rows}" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "model.ckpt").exists()


class TestBadSettings:
    """Every bad setting ends in one `config error:` line and exit 1."""

    @pytest.mark.parametrize(
        "command, key, value, message",
        [
            ("train", "mogrifier_rounds", -1, "mogrifier_rounds must be >= 0"),
            ("train", "mogrifier_rank", -2, "mogrifier_rank must be >= 0"),
            ("train", "t_max", 2.0, "t_max must exceed 2"),
            ("train", "val_window", 0, "val_window must be >= 1"),
            ("train", "val_batch_size", 0, "val_batch_size must be >= 1"),
            ("evaluate", "eval_batch_size", 0, "eval_batch_size must be >= 1"),
            ("evaluate", "eval_window", 0, "eval_window must be >= 1"),
            ("evaluate", "temperature", 0, "temperature must be positive"),
            ("tune-temperature", "eval_window", 0, "eval_window must be >= 1"),
            ("tune-temperature", "eval_batch_size", 0, "eval_batch_size must be >= 1"),
            ("tune-temperature", "temperature_grid_min", 0, "temperature grid requires"),
            ("dyneval", "temperature", 0, "temperature must be positive"),
            ("train", "t_max", "inf", "t_max must exceed 2 and be finite, got inf"),
            ("train", "lr", "nan", "lr must be positive and finite, got nan"),
            ("train", "eps", "inf", "eps must be positive and finite"),
            ("train", "beta1", -0.1, "beta1 must be in [0, 1)"),
            ("train", "beta2", 1.0, "beta2 must be in [0, 1)"),
            ("train", "eps", -1, "eps must be positive"),
            ("train", "eps", 0, "eps must be positive"),
            ("train", "lr_decay_on_restart", -1, "lr_decay_on_restart must be positive"),
            ("train", "clip_norm", "nan", "clip_norm must be >= 0, got nan"),
            ("train", "clip_norm", -1, "clip_norm must be >= 0"),
            ("train", "patience", -1, "patience must be >= 0"),
            ("train", "val_interval", -1, "val_interval must be >= 0"),
            ("train", "target_val_nats", -1, "target_val_nats must be >= 0"),
            ("train", "max_train_seconds", -1, "max_train_seconds must be >= 0"),
            ("train", "mode", "bogus", "mode must be byte, char, or word"),
            ("train", "eval_split", "bogus", "eval_split must be train, valid, or test"),
            ("evaluate", "temperature_grid_step", 0, "temperature_grid_step > 0"),
            ("evaluate", "temperature_grid_step", 1e-5, "at most 10,001 points"),
            ("tune-temperature", "temperature_grid_step", "inf", "finite temperature_grid_step"),
            ("dyneval", "dyn_lr", "nan", "dyn_lr must be >= 0 and finite, got nan"),
            ("dyneval", "dyn_lr", "inf", "dyn_lr must be >= 0 and finite, got inf"),
            ("dyneval", "dyn_segment", 0, "dyn_segment must be >= 1"),
            ("dyneval", "dyn_norm", "bogus", "dyn_norm must be 'none' or 'global'"),
        ],
    )
    def test_setting(self, trained_run, tmp_path, capsys, command, key, value, message):
        run_dir = tmp_path if command == "train" else trained_run["root"]
        # dyneval rows tune: tuning ignores dyn_lr, dyn_decay and dyn_norm,
        # yet a bad value of theirs is still refused.
        tune = {"dyn_tune": "true"} if command == "dyneval" else {}
        config = write_config(
            tmp_path / "bad.cfg", trained_run["corpus"], run_dir,
            temperature_file=tmp_path / "temperature.txt", **tune, **{key: value},
        )
        assert cli.main([command, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "model.ckpt").exists()
        assert not (tmp_path / "temperature.txt").exists()

    @pytest.mark.parametrize("flag", [False, True], ids=["config", "flag"])
    def test_negative_seed(self, trained_run, tmp_path, capsys, flag):
        config = write_config(
            tmp_path / "bad.cfg", trained_run["corpus"], tmp_path, seed=3 if flag else -1
        )
        override = ["--seed", "-1"] if flag else []
        assert cli.main(["train", "--config", str(config), *override]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "config error: seed must be >= 0, got -1\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]

    @pytest.mark.parametrize("text", ["abc", "0", ""])
    def test_temperature_file(self, trained_run, tmp_path, capsys, text):
        temperature_file = tmp_path / "temperature.txt"
        temperature_file.write_text(text)
        config = write_config(
            tmp_path / "t.cfg", trained_run["corpus"], trained_run["root"],
            temperature_file=temperature_file,
        )
        assert cli.main(["evaluate", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: temperature file") and repr(text) in err
        assert err.count("\n") == 1


class TestBadFiles:
    """A path that names a directory where a file belongs, or a vocabulary
    sidecar that does not read back, ends in one line and exit 1."""

    @pytest.mark.parametrize(
        "command, key",
        [
            ("evaluate", "checkpoint_path"),
            ("evaluate", "metrics_path"),
            ("train", "metrics_path"),
            ("evaluate", "temperature_file"),
            ("tune-temperature", "temperature_file"),
            ("train", "checkpoint_path"),
            ("train", "tta_checkpoint_path"),
        ],
    )
    def test_directory_for_a_file(
        self, trained_run, tmp_path, capsys, monkeypatch, command, key
    ):
        run_dir = tmp_path if command == "train" else trained_run["root"]
        directory = tmp_path / "a_directory"
        directory.mkdir()
        config = write_config(
            tmp_path / "dir.cfg", trained_run["corpus"], run_dir, **{key: directory}
        )
        trained = []
        monkeypatch.setattr(training, "train", lambda *args, **kwargs: trained.append(1))
        assert cli.main([command, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("file error:") and str(directory) in err
        assert err.count("\n") == 1
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
        assert trained == []  # a train command is refused before it trains

    @pytest.mark.parametrize("key", ["checkpoint_path", "tta_checkpoint_path", "vocab_path"])
    def test_missing_directory_for_a_training_output(
        self, trained_run, tmp_path, capsys, monkeypatch, key
    ):
        missing = tmp_path / "no_such_directory"
        config = write_config(
            tmp_path / "dir.cfg", trained_run["corpus"], tmp_path, **{key: missing / "out"}
        )
        trained = []
        monkeypatch.setattr(training, "train", lambda *args, **kwargs: trained.append(1))
        assert cli.main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        # With checkpoint_path, the first file refused is its .vocab sidecar.
        assert err.startswith(f"file error: cannot write {missing / 'out'}")
        assert err.endswith(f": no directory {missing}\n") and err.count("\n") == 1
        assert trained == []

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"a\n\xff\n", "line 2 is not one escaped ASCII symbol"),
            (b"a\nb\\\n", "line 2 is not one escaped ASCII symbol"),
            (b"a\nb\na\n", "line 3 repeats line 1"),
        ],
    )
    def test_corrupt_vocabulary(self, trained_run, tmp_path, capsys, content, message):
        vocab = tmp_path / "model.vocab"
        vocab.write_bytes(content)
        config = write_config(
            tmp_path / "vocab.cfg", trained_run["corpus"], trained_run["root"], vocab_path=vocab
        )
        assert cli.main(["evaluate", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"data error: vocabulary file {vocab} {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["evaluate", "dyneval", "tune-temperature"])
    def test_word_mode_refuses_a_vocabulary_without_its_symbols(
        self, trained_run, tmp_path, capsys, command
    ):
        # The checkpoint's sidecar holds a byte vocabulary, which has no <unk>
        # or <eos>: word mode cannot encode a split with it.
        config = write_config(
            tmp_path / "word.cfg", trained_run["corpus"], tmp_path, mode="word",
            checkpoint_path=trained_run["checkpoint"], temperature_file=tmp_path / "t.txt",
        )
        assert cli.main([command, "--config", str(config)]) == 1
        vocab = f"{trained_run['checkpoint']}.vocab"
        assert capsys.readouterr() == (
            "", f"data error: vocabulary file {vocab} lacks <unk> or <eos>: not a word vocabulary\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["word.cfg"]


class TestOneRefusal:
    """The whole config is checked where it is loaded, so every command
    refuses a bad value of each checked section with the same line, before
    it reads a split or a checkpoint or writes anything."""

    @pytest.mark.parametrize(
        "command", ["train", "evaluate", "dyneval", "tune-temperature", "gradcheck"]
    )
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("mode", "bogus", "mode must be byte, char, or word, got 'bogus'"),
            ("beta2", 1.0, "beta2 must be in [0, 1), got 1.0"),
            ("eval_split", "bogus", "eval_split must be train, valid, or test, got 'bogus'"),
            ("temperature_grid_step", 0, "temperature grid requires a finite "
             "temperature_grid_step > 0 that gives at most 10,001 points, got 0.0"),
            ("dyn_lr", "nan", "dyn_lr must be >= 0 and finite, got nan"),
        ],
    )
    def test_every_command_refuses_the_same_way(
        self, trained_run, tmp_path, capsys, monkeypatch, command, key, value, message
    ):
        monkeypatch.setattr(cli.gradcheck, "gradient_check_suite", lambda: [])
        checkpoint = tmp_path / "model.ckpt" if command == "train" else trained_run["checkpoint"]
        config = write_config(
            tmp_path / "bad.cfg", trained_run["corpus"], tmp_path,
            checkpoint_path=checkpoint, temperature_file=tmp_path / "temperature.txt",
            **{key: value},
        )
        assert cli.main([command, "--config", str(config)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"config error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]


class TestDynevalCommand:
    def test_invalid_setting_is_a_config_error(self, trained_run, tmp_path, capsys):
        config = write_config(
            tmp_path / "neg.cfg", trained_run["corpus"], trained_run["root"], dyn_lr=-1.0
        )
        assert cli.main(["dyneval", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "lr must be >= 0" in err

    def test_lr_zero_matches_static_exactly(self, trained_run, tmp_path, capsys):
        config = write_config(
            tmp_path / "dyn.cfg", trained_run["corpus"], trained_run["root"],
            dyn_segment=50, dyn_lr=0.0,
        )
        cli.main(["evaluate", "--config", str(config)])
        static_line = capsys.readouterr().out.strip()
        cli.main(["dyneval", "--config", str(config)])
        dyn_line = capsys.readouterr().out.strip()
        assert dyn_line.startswith("event=dyneval split=test ")
        # repr equality of the nats field means the totals agree bitwise.
        assert field(dyn_line, "nats_per_token") == field(static_line, "nats_per_token")
        assert "dyn_segment=50" in dyn_line

    def test_adaptation_fields_reported(self, trained_run, tmp_path, capsys):
        config = write_config(
            tmp_path / "dyn2.cfg", trained_run["corpus"], trained_run["root"],
            dyn_segment=40, dyn_lr=1e-3, dyn_norm="global",
        )
        assert cli.main(["dyneval", "--config", str(config)]) == 0
        line = capsys.readouterr().out.strip()
        assert "dyn_lr=0.001" in line
        assert "dyn_norm=global" in line


class TestTuneTemperature:
    def test_writes_file_reused_by_evaluate(self, trained_run, tmp_path, capsys):
        temp_file = tmp_path / "temp.txt"
        config = write_config(
            tmp_path / "t.cfg", trained_run["corpus"], trained_run["root"],
            temperature_file=temp_file,
            temperature_grid_min=0.9, temperature_grid_max=1.2,
            temperature_grid_step=0.1,
        )
        cli.main(["evaluate", "--config", str(config)])
        before = float(field(capsys.readouterr().out, "nats_per_token"))

        assert cli.main(["tune-temperature", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        tuned = float(field(out, "temperature"))
        assert 0.9 <= tuned <= 1.2
        assert float(temp_file.read_text()) == tuned

        cli.main(["evaluate", "--config", str(config)])
        line = capsys.readouterr().out
        assert float(field(line, "temperature")) == tuned
        after = float(field(line, "nats_per_token"))
        # Tuned on valid, applied to test: no guarantee of strict gain, but
        # the tuned run must load the stored temperature and stay sane.
        assert math.isfinite(after) and after < 4.3

        # On the tuning split itself the tuned temperature cannot lose.
        valid_cfg = write_config(
            tmp_path / "tv.cfg", trained_run["corpus"], trained_run["root"],
            temperature_file=temp_file,
            eval_split="valid",
        )
        cli.main(["evaluate", "--config", str(valid_cfg)])
        tuned_valid = float(field(capsys.readouterr().out, "nats_per_token"))
        plain_cfg = write_config(
            tmp_path / "tp.cfg", trained_run["corpus"], trained_run["root"],
            temperature_file=tmp_path / "absent.txt",
            eval_split="valid",
        )
        cli.main(["evaluate", "--config", str(plain_cfg)])
        plain_valid = float(field(capsys.readouterr().out, "nats_per_token"))
        assert tuned_valid <= plain_valid + 1e-12

    def test_needs_no_test_split(self, trained_run, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        shutil.copytree(trained_run["corpus"], corpus_dir)
        (corpus_dir / "test.txt").unlink()
        temp_file = tmp_path / "temp.txt"
        config = write_config(
            tmp_path / "t.cfg", corpus_dir, trained_run["root"], temperature_file=temp_file
        )
        assert cli.main(["tune-temperature", "--config", str(config)]) == 0
        tuned = float(field(capsys.readouterr().out, "temperature"))
        assert float(temp_file.read_text()) == tuned


class TestMemorization:
    def test_tiny_corpus_memorized_to_low_bits(self, tmp_path, capsys):
        corpus_dir = tmp_path / "pattern"
        os.makedirs(corpus_dir)
        text = "abcdefgh" * 200
        for split in ("train", "valid", "test"):
            (corpus_dir / f"{split}.txt").write_text(text)
        config = write_config(
            tmp_path / "mem.cfg", corpus_dir, tmp_path,
            state_size=32, window=16, batch_size=2, lr=1e-2,
            epochs=400, val_interval=20, target_val_nats=0.04,
            val_batch_size=2, val_window=16,
            eval_split="train",
        )
        assert cli.main(["train", "--config", str(config)]) == 0
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(config)]) == 0
        line = capsys.readouterr().out
        assert float(field(line, "bpc")) < 0.1
