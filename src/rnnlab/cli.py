"""Command-line entry point.

Subcommands: train, evaluate, dyneval, tune-temperature, gradcheck.
Exit codes: 0 success, 1 usage, configuration or data error or a file that
cannot be read or written, 2 numerical failure (a gradient check above
tolerance, or training diverging beyond the restart budget)."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import functools
import math
import os
import sys

from . import checkpoint as ckpt_mod
from . import config as config_mod
from . import data as data_mod
from . import evaluation, gradcheck, model, numerics, training
from .config import ConfigError, RunConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

GRADCHECK_TOLERANCE = 1e-5


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# The flags besides --config that each subcommand reads, and their settings.
FLAGS = {
    "train": ("--checkpoint", "--seed", "--csv-out"),
    "evaluate": ("--checkpoint", "--csv-out"),
    "dyneval": ("--checkpoint", "--csv-out"),
    "tune-temperature": ("--checkpoint",),
    "gradcheck": (),
}
FLAG_SETTINGS = {
    "--checkpoint": {"help": "checkpoint path (overrides config)"},
    "--seed": {"type": int, "help": "seed override"},
    "--csv-out": {"help": "also export results as CSV"},
}


@functools.cache  # parse_args fills a new namespace per call; nothing parsed stays behind
def build_parser() -> _Parser:
    parser = _Parser(prog="rnnlab", description="recurrent language model laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in FLAGS.items():
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=name != "gradcheck", help="key = value config file")
        for flag in flags:
            cmd.add_argument(flag, **FLAG_SETTINGS[flag])
    return parser


def _load_run_config(args) -> RunConfig:
    cfg = config_mod.load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "checkpoint", None) is not None:
        cfg.checkpoint_path = args.checkpoint
    config_mod.checked(cfg)
    numerics.set_fast_gemm(cfg.fast_gemm)
    return cfg


def _split_file(cfg: RunConfig, split: str) -> str:
    """The file that `<split>_path` names; a config error unless it exists."""
    path = getattr(cfg, f"{split}_path")
    if not path or not os.path.exists(path):
        raise ConfigError(f"{split}_path does not exist: {path!r}")
    return path


def _writable_files(*paths):
    """A file error unless a file can be written at each path given (None and
    "" are skipped): it is not a directory, and its directory exists and may
    be written.  A command checks what it writes this way before its work."""
    for path in filter(None, paths):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise OSError(f"cannot write {path}: no directory {directory}")
        if not os.access(directory, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), directory)


def _vocab_file(cfg: RunConfig) -> str:
    return cfg.vocab_path or cfg.checkpoint_path + ".vocab"


def _temperature_file(cfg: RunConfig) -> str:
    return cfg.temperature_file or cfg.checkpoint_path + ".temperature"


def _load_vocab_for_eval(cfg: RunConfig, expected_size: int):
    path = _vocab_file(cfg)
    if os.path.exists(path):
        vocab = data_mod.Vocab.load(path, cfg.mode)
    elif cfg.train_path and os.path.exists(cfg.train_path):
        vocab = data_mod.build_vocab(data_mod.load_text(cfg.train_path), cfg.mode)
    else:
        raise ConfigError(f"no vocabulary: neither {path} nor train_path is readable")
    if vocab.size != expected_size:
        raise ConfigError(
            f"vocabulary has {vocab.size} symbols but the checkpoint expects {expected_size}"
        )
    return vocab


def _emit(cfg: RunConfig, line: str):
    """Print a result line and append it to the metrics log."""
    print(line)
    if cfg.metrics_path:
        with open(cfg.metrics_path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")


def _eval_temperature(cfg: RunConfig) -> float:
    path = _temperature_file(cfg)
    if not os.path.exists(path):
        return cfg.temperature
    with open(path, encoding="ascii", errors="replace") as fh:
        text = fh.read().strip()
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise ConfigError(f"temperature file {path} holds {text!r}, not a positive finite number")
    return value


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    paths = {split: _split_file(cfg, split) for split in ("train", "valid", "test")}
    vocab, streams = data_mod.load_splits(*paths.values(), cfg.mode)
    model_config = config_mod.section(cfg, model.ModelConfig, vocab_size=vocab.size)
    opts = config_mod.section(cfg, training.TrainOptions)
    for split, rows in (("train", opts.batch_size), ("valid", opts.val_batch_size)):
        evaluation.require_scorable(streams[split], rows, f"{split} split {paths[split]}")
    tta_path = cfg.tta_checkpoint_path or cfg.checkpoint_path + ".tta"
    _writable_files(_vocab_file(cfg), cfg.checkpoint_path, tta_path, args.csv_out)
    rng = numerics.Rng(cfg.seed)

    with open(cfg.metrics_path or os.devnull, "w", encoding="utf-8") as log:

        def sink(line):
            log.write(line + "\n")
            log.flush()

        for key, value in config_mod.resolved_items(cfg):
            sink(f"# config {key}={value!r}")
        sink(f"# vocab_size={vocab.size}")
        result = training.train(
            model_config, opts, streams["train"], streams["valid"], rng, metrics_sink=sink
        )

    vocab.save(_vocab_file(cfg))
    ckpt_mod.save_checkpoint(cfg.checkpoint_path, result.best)
    tta_ckpt = dataclasses.replace(
        result.best,
        params=model.empty_model_params(model_config, result.tta_average),
        best_val_nats=result.tta_val_nats,
    )
    ckpt_mod.save_checkpoint(tta_path, tta_ckpt)

    ppl, bpc = evaluation.convert_metrics(result.best_val_nats)
    print(
        f"steps={result.steps} restarts={result.restarts} stop={result.stop_reason} "
        f"best_val_nats={result.best_val_nats!r} val_ppl={ppl!r} val_bpc={bpc!r} "
        f"tta_val_nats={result.tta_val_nats!r}"
    )
    if args.csv_out:
        _write_train_csv(args.csv_out, result.metrics_lines)
    return EXIT_OK


def _write_train_csv(path, metrics_lines):
    fields = ["step", "epoch", "train_nats", "val_nats", "tta_nats", "lr", "restarts"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for line in metrics_lines:
            pairs = dict(item.split("=", 1) for item in line.split(" ") if "=" in item)
            if pairs.get("event") != "val":
                continue
            writer.writerow([pairs.get(f, "") for f in fields])


def _report(args, cfg: RunConfig, event: str, split: str, report: evaluation.EvalReport) -> int:
    """Emit an evaluation report and, with --csv-out, export it."""
    _emit(cfg, f"event={event} split={split} " + evaluation.format_report(report))
    if args.csv_out:
        with open(args.csv_out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["nats_per_token", "perplexity", "bpc", "tokens", "temperature"])
            writer.writerow(
                [report.nats_per_token, report.perplexity, report.bpc,
                 report.token_count, report.temperature]
            )
    return EXIT_OK


def _load_model(args):
    """The run config, the checkpoint and the vocabulary of a scoring command
    whose outputs (--csv-out, the metrics log, a tuned temperature) can be written."""
    cfg = _load_run_config(args)
    tuned = _temperature_file(cfg) if args.command == "tune-temperature" else None
    _writable_files(getattr(args, "csv_out", None), cfg.metrics_path, tuned)
    ckpt = ckpt_mod.load_checkpoint(cfg.checkpoint_path)
    return cfg, ckpt, _load_vocab_for_eval(cfg, ckpt.config.vocab_size)


def _encoded_split(cfg: RunConfig, vocab, split: str, rows: int):
    """A split's tokens; a data error unless they fill `rows` scoring rows."""
    path = _split_file(cfg, split)
    stream = data_mod.encode_split(vocab, data_mod.load_text(path), split, path)
    evaluation.require_scorable(stream, rows, f"{split} split {path}")
    return stream


def cmd_evaluate(args) -> int:
    cfg, ckpt, vocab = _load_model(args)
    stream = _encoded_split(cfg, vocab, cfg.eval_split, cfg.eval_batch_size)
    temperature = _eval_temperature(cfg)
    report = evaluation.evaluate_static(
        ckpt.params, ckpt.config, stream, temperature, cfg.eval_batch_size, cfg.eval_window
    )
    return _report(args, cfg, "eval", cfg.eval_split, report)


def cmd_dyneval(args) -> int:
    cfg, ckpt, vocab = _load_model(args)
    stream = _encoded_split(cfg, vocab, cfg.eval_split, 1)
    temperature = _eval_temperature(cfg)
    dcfg = config_mod.section(cfg, evaluation.DynevalConfig)
    if cfg.dyn_tune:
        tune_stream = _encoded_split(cfg, vocab, "valid", 1)
        grid = evaluation.default_dyneval_grid(dcfg.segment)
        dcfg, _ = evaluation.tune_dyneval(ckpt.params, ckpt.config, tune_stream, grid, temperature)
    report = evaluation.evaluate_dynamic(ckpt.params, ckpt.config, stream, dcfg, temperature)
    return _report(args, cfg, "dyneval", cfg.eval_split, report)


def cmd_tune_temperature(args) -> int:
    cfg, ckpt, vocab = _load_model(args)
    valid_stream = _encoded_split(cfg, vocab, "valid", cfg.eval_batch_size)
    grid = config_mod.section(cfg, evaluation.EvalSettings).temperature_grid()
    best = evaluation.tune_temperature(
        ckpt.params, ckpt.config, valid_stream, grid, cfg.eval_batch_size, cfg.eval_window
    )
    path = _temperature_file(cfg)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{best!r}\n")
    _emit(cfg, f"event=tune_temperature temperature={best!r} file={path}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.config:
        _load_run_config(args)
    results = gradcheck.gradient_check_suite()
    failed = False
    for name, err in results:
        status = "ok" if err < GRADCHECK_TOLERANCE else "FAIL"
        print(f"{name} max_rel_err={err:.3e} {status}")
        failed = failed or err >= GRADCHECK_TOLERANCE
    print(f"checked {len(results)} components, tolerance {GRADCHECK_TOLERANCE:g}")
    return EXIT_NUMERIC if failed else EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "train": cmd_train,
        "evaluate": cmd_evaluate,
        "dyneval": cmd_dyneval,
        "tune-temperature": cmd_tune_temperature,
        "gradcheck": cmd_gradcheck,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except data_mod.DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ckpt_mod.CheckpointError as err:
        print(f"checkpoint error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as err:
        print(f"missing file: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:  # a directory where a file belongs, a file it may not read, ...
        print(f"file error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except training.TrainingDiverged as err:
        print(f"training diverged: {err}", file=sys.stderr)
        return EXIT_NUMERIC


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
