import dataclasses
import math
import re
from pathlib import Path

import pytest

from rnnlab import config as config_mod
from rnnlab import evaluation
from rnnlab.config import (
    ConfigError,
    RunConfig,
    load_config,
    parse_config,
    resolved_items,
    section,
)
from rnnlab.evaluation import DynevalConfig, EvalSettings
from rnnlab.model import ModelConfig
from rnnlab.training import TrainOptions


def temperature_grid(cfg):
    return section(cfg, EvalSettings).temperature_grid()


class TestParse:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == RunConfig()

    def test_sections_and_comments_ignored(self):
        cfg = parse_config(
            "# run settings\n"
            "[model]\n"
            "layers = 3\n"
            "\n"
            "[optimization]\n"
            "lr = 0.001  \n"
        )
        assert cfg.layers == 3
        assert cfg.lr == 0.001
        assert cfg.state_size == RunConfig().state_size

    @pytest.mark.parametrize("raw,expected", [
        ("true", True), ("True", True), ("yes", True), ("1", True), ("on", True),
        ("false", False), ("no", False), ("0", False), ("off", False),
    ])
    def test_bool_spellings(self, raw, expected):
        assert parse_config(f"tie_embeddings = {raw}").tie_embeddings is expected

    def test_scientific_notation_floats(self):
        cfg = parse_config("lr = 3e-3\neps = 1E-8")
        assert cfg.lr == 3e-3
        assert cfg.eps == 1e-8

    def test_string_values_keep_spaces_trimmed(self):
        cfg = parse_config("train_path = data/train.txt ")
        assert cfg.train_path == "data/train.txt"

    def test_equals_in_value_preserved(self):
        cfg = parse_config("metrics_path = runs/a=b.log")
        assert cfg.metrics_path == "runs/a=b.log"


class TestParseErrors:
    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 3.*unknown key 'florble'"):
            parse_config("layers = 2\n\nflorble = 9\n")

    def test_duplicate_key_reports_both_lines(self):
        with pytest.raises(ConfigError, match="line 4.*duplicate key 'lr'.*line 2"):
            parse_config("# x\nlr = 1e-3\n\nlr = 2e-3\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words\n")

    def test_bad_int(self):
        with pytest.raises(ConfigError, match="line 1.*cannot parse int.*'layers'"):
            parse_config("layers = two\n")

    def test_bad_float(self):
        with pytest.raises(ConfigError, match="cannot parse float"):
            parse_config("lr = fast\n")

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="cannot parse bool"):
            parse_config("tie_embeddings = maybe\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "nope.cfg")


class TestLoad:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 9\nwindow = 64\ncell = lstm\n")
        cfg = load_config(path)
        assert (cfg.seed, cfg.window, cfg.cell) == (9, 64, "lstm")


class TestResolvedItems:
    def test_covers_every_field_in_order(self):
        cfg = RunConfig(layers=5)
        items = resolved_items(cfg)
        names = [name for name, _ in items]
        assert names[0] == "layers"
        assert len(names) == len(set(names))
        assert dict(items)["layers"] == 5
        assert set(names) == {f.name for f in dataclasses.fields(RunConfig)}

    def test_header_order_is_pinned(self):
        # The metrics log header lists the keys in this order; reordering
        # them would change every metrics log.
        assert [name for name, _ in resolved_items(RunConfig())] == (
            "layers state_size cell cap_input_gate mogrifier_rounds mogrifier_rank keep_in "
            "keep_cell keep_state keep_out tie_embeddings dropout_samples "
            "residual_includes_embedding input_mask_rows t_max dtype mode train_path "
            "valid_path test_path vocab_path lr beta1 beta2 eps clip_norm divergence_factor "
            "lr_decay_on_restart max_restarts epochs batch_size window val_interval patience "
            "target_val_nats max_train_seconds val_batch_size val_window eval_split "
            "eval_batch_size eval_window temperature temperature_grid_min "
            "temperature_grid_max temperature_grid_step temperature_file dyn_segment dyn_lr "
            "dyn_decay dyn_norm dyn_tune seed checkpoint_path tta_checkpoint_path "
            "metrics_path fast_gemm"
        ).split()


class TestConversions:
    def test_model_config_fields(self):
        cfg = parse_config(
            "layers = 3\nstate_size = 50\ncell = lstm\nkeep_cell = 0.7\n"
            "tie_embeddings = yes\ndropout_samples = 4\nmogrifier_rank = 8\n"
        )
        mc = section(cfg, ModelConfig, vocab_size=99)
        assert mc.layers == 3
        assert mc.state_size == 50
        assert mc.vocab_size == 99
        assert mc.cell == "lstm"
        assert mc.keep_cell == 0.7
        assert mc.tie_embeddings is True
        assert mc.dropout_samples == 4
        assert mc.mogrifier_rank == 8
        mc.validate()

    def test_train_options_fields(self):
        cfg = parse_config("lr = 5e-4\nepochs = 7\nclip_norm = 2.5\npatience = 3\n")
        opts = section(cfg, TrainOptions)
        assert opts.lr == 5e-4
        assert opts.epochs == 7
        assert opts.clip_norm == 2.5
        assert opts.patience == 3
        opts.validate()

    def test_dyneval_fields(self):
        cfg = parse_config("dyn_segment = 42\ndyn_lr = 1e-3\ndyn_norm = global\n")
        dcfg = section(cfg, DynevalConfig)
        assert dcfg.segment == 42
        assert dcfg.lr == 1e-3
        assert dcfg.norm == "global"
        dcfg.validate()

    @pytest.mark.parametrize("cls,prefix", [
        (ModelConfig, ""), (TrainOptions, ""), (DynevalConfig, "dyn_"),
    ])
    def test_keys_and_defaults_come_from_the_dataclass(self, cls, prefix):
        keys = {f.name: f for f in dataclasses.fields(RunConfig)}
        for f in dataclasses.fields(cls):
            if f.name == "vocab_size":
                assert f.name not in keys
                continue
            assert keys[prefix + f.name].default == f.default
            assert keys[prefix + f.name].type == f.type
        given = {"vocab_size": 5} if cls is ModelConfig else {}
        assert section(RunConfig(), cls, **given) == cls(**given)


class TestTemperatureGrid:
    def test_default_grid_bounds(self):
        grid = temperature_grid(RunConfig())
        assert grid[0] == 0.70
        assert grid[-1] == 1.30
        assert len(grid) == 31
        assert all(b - a == pytest.approx(0.02, abs=1e-9) for a, b in zip(grid, grid[1:]))

    def test_one_default_grid(self):
        assert temperature_grid(RunConfig()) == evaluation.default_temperature_grid()
        assert section(RunConfig(), evaluation.EvalSettings) == evaluation.EvalSettings()

    def test_custom_grid(self):
        cfg = parse_config(
            "temperature_grid_min = 1.0\ntemperature_grid_max = 3.0\n"
            "temperature_grid_step = 0.5\n"
        )
        assert temperature_grid(cfg) == [1.0, 1.5, 2.0, 2.5, 3.0]

    def test_single_point_grid(self):
        cfg = parse_config("temperature_grid_min = 1.0\ntemperature_grid_max = 1.0\n")
        assert temperature_grid(cfg) == [1.0]

    def test_bad_grids(self):
        with pytest.raises(ConfigError):
            temperature_grid(parse_config("temperature_grid_step = 0\n"))
        with pytest.raises(ConfigError):
            temperature_grid(
                parse_config("temperature_grid_min = 2.0\ntemperature_grid_max = 1.0\n")
            )
        for bad in (
            "temperature_grid_min = 0\n", "temperature_grid_max = inf\n",
            "temperature_grid_min = nan\n", "temperature_grid_step = inf\n",
            "temperature_grid_step = 1e-5\n",  # 60,001 points
        ):
            with pytest.raises(ConfigError):
                temperature_grid(parse_config(bad))


class TestCheckedAtParse:
    @pytest.mark.parametrize("text, message", [
        ("mode = bogus", "mode must be byte, char, or word, got 'bogus'"),
        ("beta2 = 1.0", "beta2 must be in [0, 1), got 1.0"),
        ("eval_split = bogus", "eval_split must be train, valid, or test"),
        ("dyn_lr = nan", "dyn_lr must be >= 0 and finite, got nan"),
        ("dyn_segment = 0", "dyn_segment must be >= 1"),
    ])
    def test_bad_value_names_its_key(self, text, message):
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            parse_config(text)

    def test_model_keys_wait_for_the_vocabulary(self):
        cfg = parse_config("layers = 0\n")
        with pytest.raises(ConfigError, match="^layers must be >= 1"):
            section(cfg, ModelConfig, vocab_size=5)


class TestDefaults:
    def test_key_defaults(self):
        cfg = RunConfig()
        assert cfg.cell == "rlstm"
        assert cfg.mogrifier_rounds == 4
        assert cfg.dropout_samples == 1
        assert cfg.lr == 3e-3
        assert cfg.beta2 == 0.999
        assert cfg.divergence_factor == 3.0
        assert cfg.lr_decay_on_restart == 0.9
        assert cfg.t_max == pytest.approx(math.e**3)
        assert cfg.mode == "byte"
        assert cfg.eval_batch_size == 1
        assert cfg.dyn_lr == 0.0


class TestReadme:
    def test_configuration_section_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        text = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        (listing,) = [block for block in text.split("\n\n") if block.startswith("- **")]
        listed = re.findall(r"`([a-z][a-z0-9_]*)`", listing)
        assert len(listed) == len(set(listed))
        assert set(listed) == {f.name for f in dataclasses.fields(RunConfig)}
