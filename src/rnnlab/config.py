"""Run configuration: a flat key = value file format (no code execution) and
RunConfig, the dataclass of every key with its default.  The model,
optimization, evaluation and dynamic-evaluation keys and defaults are those
of ModelConfig, TrainOptions, EvalSettings and DynevalConfig; `section`
builds those back, validated.  Parsing checks every section but the model's,
which needs the vocabulary size, so a bad value is refused before any data
or checkpoint is read.

Section headers like [model] are allowed for readability and ignored; keys
are global.  Unknown or duplicate keys are rejected with their line number.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .evaluation import DynevalConfig, EvalSettings
from .model import ModelConfig
from .training import TrainOptions


class ConfigError(Exception):
    def __init__(self, message, line=None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


@dataclass
class _Data:
    mode: str = "byte"
    train_path: str = ""
    valid_path: str = ""
    test_path: str = ""
    vocab_path: str = ""

    def validate(self):
        if self.mode not in ("byte", "char", "word"):
            raise ValueError(f"mode must be byte, char, or word, got '{self.mode}'")
        return self


@dataclass
class _Run:
    dyn_tune: bool = False  # pick the dyn_* setting on the valid split instead
    seed: int = 0
    checkpoint_path: str = "checkpoint.bin"
    tta_checkpoint_path: str = ""
    metrics_path: str = "metrics.log"
    fast_gemm: bool = True

    def validate(self):
        if self.seed < 0:  # the generator takes non-negative seeds only
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        return self


# The dataclasses whose fields are the config keys, in metrics-header order,
# and the prefix that a section's keys carry.
_SECTIONS = (ModelConfig, _Data, TrainOptions, EvalSettings, DynevalConfig, _Run)
_PREFIX = {DynevalConfig: "dyn_"}


def _keys(section):
    return [
        (_PREFIX.get(section, "") + f.name, f.type, dataclasses.field(default=f.default))
        for f in dataclasses.fields(section)
        if f.name != "vocab_size"  # a property of the data, not a setting
    ]


RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    [key for section in _SECTIONS for key in _keys(section)],
    namespace={
        "__module__": __name__,
        "__doc__": "Every config key with its default, in metrics-header order: the "
        "fields of ModelConfig (but vocab_size), the data paths, TrainOptions, "
        "EvalSettings, DynevalConfig (keys dyn_<field>), then the run plumbing.",
    },
)


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _convert(name: str, raw: str, line: int):
    kind = _FIELDS[name].type
    raw = raw.strip()
    try:
        if kind == "bool":
            lowered = raw.lower()
            if lowered in ("true", "yes", "1", "on"):
                return True
            if lowered in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"cannot parse {kind} value {raw!r} for key '{name}'", line) from None


def parse_config(text: str) -> RunConfig:
    values = {}
    lines = {}
    for lineno, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"unknown key '{key}'", lineno)
        if key in values:
            raise ConfigError(f"duplicate key '{key}' (first set on line {lines[key]})", lineno)
        values[key] = _convert(key, raw_value, lineno)
        lines[key] = lineno
    return checked(RunConfig(**values))


def checked(cfg: RunConfig) -> RunConfig:
    """cfg, once every section of it but the model's, which needs the
    vocabulary size, is valid; a ConfigError otherwise.  The command line
    checks its overrides with it."""
    for cls in (_Data, TrainOptions, EvalSettings, DynevalConfig, _Run):
        section(cfg, cls)
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    return parse_config(text)


def resolved_items(cfg: RunConfig):
    """Every knob with its resolved value, in declaration order, for the
    metrics log header."""
    return [(f.name, getattr(cfg, f.name)) for f in dataclasses.fields(RunConfig)]


def section(cfg: RunConfig, cls, **given):
    """The validated ModelConfig, TrainOptions, EvalSettings, DynevalConfig,
    data or run section that cfg's keys set; `given` supplies the fields that
    are not keys (vocab_size).  A value out of range is a ConfigError naming
    its key: each validate message begins with a field name, which the prefix
    makes the key."""
    prefix = _PREFIX.get(cls, "")
    values = {
        f.name: getattr(cfg, prefix + f.name) for f in dataclasses.fields(cls) if f.name not in given
    }
    try:
        return cls(**values, **given).validate()
    except ValueError as err:
        raise ConfigError(prefix + str(err)) from None
