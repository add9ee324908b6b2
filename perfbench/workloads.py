"""The benchmark's workloads.

Each workload writes its corpus with `rnnlab.corpus.write_splits`, then calls
the `rnnlab` command line (`rnnlab.cli.main`) in this process, one command at
a time: the next command starts only when the last one has returned.  The
program sees only the generated files and config files.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from rnnlab import checkpoint as ckpt_mod
from rnnlab import cli, corpus, data, model

from checks import Checks, event_lines, last_line_with, parse_pairs, sha256_file


def write_config(path, values: dict):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in values.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            fh.write(f"{key} = {value}\n")


def read_text(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@dataclass
class Command:
    name: str
    code: int
    seconds: float
    out: str
    err: str


class Session:
    """Runs rnnlab commands in-process and keeps every command's outcome."""

    def __init__(self):
        self.tracer = None  # set by a traced run for its traced pass
        self.commands = []

    def span(self, label: str):
        return self.tracer.span(label) if self.tracer else contextlib.nullcontext()

    def cli(self, command: str, config_path) -> Command:
        out, err = io.StringIO(), io.StringIO()
        with self.span(f"cli.{command}"):
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main([command, "--config", str(config_path)])
                except Exception:  # a traceback is a failed command, not a crashed run
                    traceback.print_exc()
                    code = -1
            seconds = time.perf_counter() - start
        result = Command(command, code, seconds, out.getvalue(), err.getvalue())
        self.commands.append(result)
        return result


class CommandFailed(Exception):
    pass


def _ok(cmd: Command) -> Command:
    if cmd.code != 0:
        tail = (cmd.err.strip().splitlines() or ["(no message)"])[-1]
        raise CommandFailed(f"rnnlab {cmd.name} exited {cmd.code}: {tail}")
    return cmd


@dataclass
class Setup:
    dir: str
    config: dict  # rnnlab keys shared by every command of the workload
    vocab_size: int
    streams: dict
    seconds: float
    fingerprint: dict = field(default_factory=dict)
    train_steps: int = 0
    train_restarts: int = 0


@dataclass
class Rep:
    bpc: dict  # named bpc figure -> value, the same on every repeat
    # Named timing figure -> (tokens, seconds) of each call behind it; tokens
    # is 0 for a figure that is a duration.
    calls: dict
    fingerprint: dict  # outputs that must repeat exactly
    seconds: float  # wall time of the pass through the timed commands
    train_steps: int = 0
    train_restarts: int = 0


def _byte_set(path) -> set:
    with open(path, "rb") as fh:
        return set(fh.read())


def _write_splits(work_dir, corpus_seed, sizes: tuple, two_domain: bool) -> dict:
    """`corpus.write_splits`, then each split cut to its size in bytes.

    The generator stops at the first sentence end past the size it is asked
    for, so a split comes out up to a sentence (two on a two-domain split)
    longer, which is a 50-120% overshoot on eval-adapt's 128-byte valid
    split.  Cutting makes the work of every command the same for every seed.
    """
    total = sum(sizes)
    paths = corpus.write_splits(work_dir, total, corpus_seed, two_domain,
                                sizes[1] / total, sizes[2] / total)
    for split, size in zip(("train", "valid", "test"), sizes):
        with open(paths[split], "rb+") as fh:
            fh.truncate(size)
    return paths


@functools.cache
def corpus_seed_for(work_dir, seed, sizes: tuple, two_domain: bool) -> int:
    """The corpus seed that the workload seed `seed` uses.

    rnnlab builds its byte vocabulary from the training split and rejects
    any other byte.  A small training split can miss a rare byte (a 'z', a
    capital) that valid or test holds, so such a seed moves on to the next
    corpus seed: 185 of 500 seeds do for train-multisample, 24 of 500 for
    eval-adapt and none of 500 for train-desk.  The same seed always gives
    the same corpus.  The search runs once per process and outside the timed
    set-up, so that every set-up of a run writes one corpus and `setup_s`
    does not depend on how many corpus seeds a workload seed skips.
    """
    corpus_seed = seed
    while True:
        paths = _write_splits(work_dir, corpus_seed, sizes, two_domain)
        if _byte_set(paths["valid"]) | _byte_set(paths["test"]) <= _byte_set(paths["train"]):
            return corpus_seed
        corpus_seed += 1_000_003


def _write_corpus(work_dir, corpus_seed, sizes: tuple, two_domain: bool):
    """Write and encode the splits; returns (vocab, streams)."""
    paths = _write_splits(work_dir, corpus_seed, sizes, two_domain)
    return data.load_splits(paths["train"], paths["valid"], paths["test"], "byte")


def _accepted_tokens(train_stream, batch_size: int, window: int, log_text: str) -> int:
    """Target tokens in the training windows that were not rolled back."""
    restarted = {
        int(parse_pairs(line)["step"])
        for line in event_lines(log_text)
        if line.startswith("event=restart")
    }
    rows = data.batchify(train_stream, batch_size)
    return sum(
        batch.targets.size
        for step, batch in enumerate(data.windows(rows, window), start=1)
        if step not in restarted
    )


# Calls of `rnnlab evaluate` per repeat of the train workloads.  One call
# takes under a second, short enough for host jitter to move a single
# reading by 15%.
TRAIN_EVAL_CALLS = 3


REPORT_PREFIX = {"evaluate": "event=eval", "dyneval": "event=dyneval",
                 "tune-temperature": "event=tune_temperature"}


def report_of(cmd: Command) -> dict:
    """Fields of a command's report line."""
    return last_line_with(cmd.out, REPORT_PREFIX[cmd.name])


def tokens_of(cmd: Command) -> tuple:
    """(target tokens, seconds) of a scoring command."""
    return int(report_of(cmd)["tokens"]), cmd.seconds


def max_abs_cell_state(checkpoint_path, stream, batch_size: int, window: int) -> float:
    """max |c| over one deterministic forward window of a checkpoint, run
    through `model.forward_window` from outside the command line."""
    ckpt = ckpt_mod.load_checkpoint(checkpoint_path)
    rows = data.batchify(stream, batch_size)[:, :window]
    masks = model.ones_masks(ckpt.config, *rows.shape)
    _, cache, _ = model.forward_window(ckpt.params, ckpt.config, rows, masks)
    return max(float(np.max(np.abs(c.c))) for step in cache.cell_caches for c in step)


# Config overrides of the eval-adapt commands, one config file each.
EVAL_COMMANDS = {
    "tune": {},
    "evaluate": {},
    "dyntune": {"dyn_tune": True},
    # An adapting entry of the default grid.  Tuning on the small valid split
    # picks the static entry for some seeds, and then a "tuned setting" pass
    # would measure static scoring instead of adaptation.
    "dynfixed": {"dyn_lr": 1e-3, "dyn_decay": 0.02, "dyn_norm": "global"},
    "dynlr0": {"dyn_lr": 0.0, "dyn_decay": 0.0},
}

# One pass of eval-adapt's timed commands: (rnnlab command, config name).
# The host's speed drifts by up to 2x over tens of seconds, and batch-1
# scoring feels it most.  So the short scoring commands (evaluate, about
# 0.15 s, and the fixed-setting dyneval, about 0.45 s) run several times per
# pass, spread between the long ones, and their figures sample the whole run
# rather than a few moments of it.  Tuning comes first: every later command
# reads the temperature it writes next to the checkpoint.
EVAL_ADAPT_PASS = (
    ("tune-temperature", "tune"), ("evaluate", "evaluate"),
    ("dyneval", "dynfixed"), ("evaluate", "evaluate"),
    ("dyneval", "dyntune"), ("evaluate", "evaluate"),
    ("dyneval", "dynfixed"), ("evaluate", "evaluate"),
    ("dyneval", "dynlr0"), ("evaluate", "evaluate"),
    ("dyneval", "dynfixed"), ("evaluate", "evaluate"),
)

# The self-tests shrink the model but keep the corpus, whose size decides
# whether every valid/test byte is in the training vocabulary.
TINY_MODEL = {"state_size": 16, "mogrifier_rounds": 2}

# Shapes shared by both train workloads: batch x 128 windows, validation
# every VAL_INTERVAL windows (so the run holds several validation and
# tail-averaging swap events), validation and test evaluation at batch 16 x
# 128 over one and EVAL_WINDOWS windows.
WINDOW = 128
VAL_INTERVAL = 2
EVAL_BATCH_SIZE = 16
EVAL_WINDOWS = 4

# eval-adapt: set-up trains on ADAPT_TRAIN_WINDOWS windows of 16 x 32; the
# timed commands score valid and test splits small enough that at least five
# repeats fit in one run.  The valid split is one batch-1 window of 127
# targets and two dyneval segments of the default 100, so dyneval tuning
# sees an adapted segment.
ADAPT_TRAIN_BATCH_SIZE = 16
ADAPT_TRAIN_WINDOW = 32
ADAPT_TRAIN_WINDOWS = 20
ADAPT_VALID_BYTES = 128
ADAPT_TEST_BYTES = 400


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: dict  # rnnlab model keys
    # End-to-end metric name -> the named figure it reports on this workload.
    headline: dict
    setups_per_rep: int = 1  # set-ups run before each repeat of the timed commands

    def base_config(self, work_dir, seed) -> dict:
        return {
            **self.model,
            "mode": "byte",
            "train_path": os.path.join(work_dir, "train.txt"),
            "valid_path": os.path.join(work_dir, "valid.txt"),
            "test_path": os.path.join(work_dir, "test.txt"),
            "checkpoint_path": os.path.join(work_dir, "checkpoint.bin"),
            "metrics_path": os.path.join(work_dir, "metrics.log"),
            "seed": seed,
            # Ten times the README's 3e-3.  RAdam moves a weight by about lr per
            # step, so at 3e-3 a run of a few windows ends within 0.005 bits of
            # the uniform log2(V), too close for the bpc check to mean much.
            "lr": 0.03,
            "fast_gemm": True,
        }


@dataclass(frozen=True)
class TrainWorkload(Workload):
    """`rnnlab train` for one epoch, then `rnnlab evaluate` at batch 16."""

    setups_per_rep: int = 3  # set-up takes tens of ms here; more samples steady its median
    batch_size: int = 32
    windows: int = 8  # one epoch; a repeat must fit several times in one run

    def sizes(self):
        # Rows a little shorter than the windows they fill: an epoch's last
        # window is short, and the per-window medians of a trace skip it.
        train = self.batch_size * (self.windows * WINDOW - 24)
        valid = EVAL_BATCH_SIZE * (WINDOW - 8)
        test = EVAL_BATCH_SIZE * (EVAL_WINDOWS * WINDOW - 8)
        return train, valid, test

    def config(self, work_dir, seed) -> dict:
        return {
            **self.base_config(work_dir, seed),
            "batch_size": self.batch_size,
            "window": WINDOW,
            "epochs": 1,
            "val_interval": VAL_INTERVAL,
            "val_batch_size": EVAL_BATCH_SIZE,
            "val_window": WINDOW,
            "eval_split": "test",
            "eval_batch_size": EVAL_BATCH_SIZE,
            "eval_window": WINDOW,
        }

    def setup(self, session: Session, work_dir, seed) -> Setup:
        corpus_seed = corpus_seed_for(work_dir, seed, self.sizes(), False)
        start = time.perf_counter()
        vocab, streams = _write_corpus(work_dir, corpus_seed, self.sizes(), False)
        seconds = time.perf_counter() - start
        cfg = self.config(work_dir, seed)
        write_config(os.path.join(work_dir, "run.cfg"), cfg)
        digest = {s: sha256_file(cfg[f"{s}_path"]) for s in streams}
        fingerprint = {"corpus_seed": corpus_seed, "corpus": digest}
        return Setup(work_dir, cfg, vocab.size, streams, seconds, fingerprint)

    def rep(self, session: Session, setup: Setup) -> Rep:
        cfg_path = os.path.join(setup.dir, "run.cfg")
        cfg = setup.config
        train = _ok(session.cli("train", cfg_path))
        result = last_line_with(train.out, "steps=")
        log_text = read_text(cfg["metrics_path"])
        tokens = _accepted_tokens(setup.streams["train"], self.batch_size, WINDOW, log_text)
        evals = [_ok(session.cli("evaluate", cfg_path)) for _ in range(TRAIN_EVAL_CALLS)]
        bpc = {
            "train_val_bpc": float(result["val_bpc"]),
            "eval_batched_bpc": float(report_of(evals[-1])["bpc"]),
        }
        calls = {
            "train_tokens_per_s": [(tokens, train.seconds)],
            "eval_batched_tokens_per_s": [tokens_of(e) for e in evals],
        }
        fingerprint = {
            "checkpoint_sha256": sha256_file(cfg["checkpoint_path"]),
            "tta_checkpoint_sha256": sha256_file(cfg["checkpoint_path"] + ".tta"),
            "events": event_lines(read_text(cfg["metrics_path"])),
        }
        seconds = train.seconds + sum(e.seconds for e in evals)
        return Rep(bpc, calls, fingerprint, seconds, int(result["steps"]), int(result["restarts"]))

    def final_checks(self, checks: Checks, setup: Setup):
        checks.bounded_state(
            "bounded_state",
            max_abs_cell_state(setup.config["checkpoint_path"], setup.streams["test"],
                               EVAL_BATCH_SIZE, WINDOW),
        )

    def tiny(self) -> "TrainWorkload":
        return replace(self, model={**self.model, **TINY_MODEL}, setups_per_rep=1)


@dataclass(frozen=True)
class EvalAdaptWorkload(Workload):
    """Set-up trains a small checkpoint on a two-domain corpus; the timed
    commands tune, score and adapt at batch 1."""

    def config(self, work_dir, seed) -> dict:
        return {
            **self.base_config(work_dir, seed),
            "batch_size": ADAPT_TRAIN_BATCH_SIZE,
            "window": ADAPT_TRAIN_WINDOW,
            "epochs": 1,
            "val_interval": 0,
            "val_batch_size": 1,
            "val_window": WINDOW,
            "eval_split": "test",
            "eval_batch_size": 1,
            "eval_window": WINDOW,
        }

    def sizes(self):
        train = ADAPT_TRAIN_BATCH_SIZE * (ADAPT_TRAIN_WINDOWS * ADAPT_TRAIN_WINDOW - 24)
        return train, ADAPT_VALID_BYTES, ADAPT_TEST_BYTES

    def setup(self, session: Session, work_dir, seed) -> Setup:
        corpus_seed = corpus_seed_for(work_dir, seed, self.sizes(), True)
        start = time.perf_counter()
        vocab, streams = _write_corpus(work_dir, corpus_seed, self.sizes(), True)
        cfg = self.config(work_dir, seed)
        cfg_path = os.path.join(work_dir, "train.cfg")
        write_config(cfg_path, cfg)
        train = _ok(session.cli("train", cfg_path))
        seconds = time.perf_counter() - start
        result = last_line_with(train.out, "steps=")
        fingerprint = {
            "corpus_seed": corpus_seed,
            "checkpoint_sha256": sha256_file(cfg["checkpoint_path"]),
            "train_events": event_lines(read_text(cfg["metrics_path"])),
        }
        for name, overrides in EVAL_COMMANDS.items():
            write_config(os.path.join(work_dir, f"{name}.cfg"), {**cfg, **overrides})
        return Setup(work_dir, cfg, vocab.size, streams, seconds, fingerprint,
                     int(result["steps"]), int(result["restarts"]))

    def rep(self, session: Session, setup: Setup) -> Rep:
        d, cfg = setup.dir, setup.config
        open(cfg["metrics_path"], "w").close()  # each repeat logs its own events
        runs = {name: [] for name in EVAL_COMMANDS}
        for command, name in EVAL_ADAPT_PASS:
            runs[name].append(_ok(session.cli(command, os.path.join(d, f"{name}.cfg"))))
        last = {name: report_of(cmds[-1]) for name, cmds in runs.items()}
        bpc = {
            "dyneval_bpc": float(last["dynfixed"]["bpc"]),
            "test_bpc": float(last["evaluate"]["bpc"]),
        }
        calls = {
            "dyneval_tokens_per_s": [tokens_of(c) for c in runs["dynfixed"]],
            "eval_exact_tokens_per_s": [tokens_of(c) for c in runs["evaluate"]],
            "tune_temperature_s": [(0, c.seconds) for c in runs["tune"]],
            "dyneval_tune_s": [(0, c.seconds) for c in runs["dyntune"]],
        }
        fingerprint = {
            "temperature": last["tune"]["temperature"],
            "tuned_dyn_lr": last["dyntune"]["dyn_lr"],
            "events": event_lines(read_text(cfg["metrics_path"])),
            "static_nats_per_token": last["evaluate"]["nats_per_token"],
            "lr0_nats_per_token": last["dynlr0"]["nats_per_token"],
        }
        seconds = sum(c.seconds for cmds in runs.values() for c in cmds)
        return Rep(bpc, calls, fingerprint, seconds)

    def final_checks(self, checks: Checks, setup: Setup):
        checks.bounded_state(
            "bounded_state",
            max_abs_cell_state(setup.config["checkpoint_path"], setup.streams["test"], 1, WINDOW),
        )

    def tiny(self) -> "EvalAdaptWorkload":
        return replace(self, model={**self.model, **TINY_MODEL})


TRAIN_HEADLINE = {
    "train_tokens_per_s": "train_tokens_per_s",
    "train_bpc": "train_val_bpc",
    "eval_tokens_per_s": "eval_batched_tokens_per_s",
    "eval_bpc": "eval_batched_bpc",
}

WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(
            name="train-desk",
            why="README quick-start training, 2x128 rlstm, 4 mogrifier rounds, D=1, "
                "batch 32 x 128, then batch-16 evaluation; multi-sample path bypassed",
            model={"layers": 2, "state_size": 128, "cell": "rlstm", "mogrifier_rounds": 4,
                   "dropout_samples": 1},
            headline=TRAIN_HEADLINE,
        ),
        TrainWorkload(
            name="train-multisample",
            why="capped-LSTM training with 4 dropout samples (keep 0.8), batch 16 x 128: "
                "the only workload with the multi-sample objective and mask sampling",
            model={"layers": 2, "state_size": 128, "cell": "lstm", "mogrifier_rounds": 4,
                   "dropout_samples": 4, "keep_in": 0.8, "keep_cell": 0.8,
                   "keep_state": 0.8, "keep_out": 0.8},
            headline=TRAIN_HEADLINE,
            batch_size=16,
            windows=4,
        ),
        EvalAdaptWorkload(
            name="eval-adapt",
            why="batch-1 temperature tuning, exact scoring and dynamic evaluation of a "
                "2x64 rlstm on a two-domain corpus; no optimizer, no training in the timed part",
            model={"layers": 2, "state_size": 64, "cell": "rlstm", "mogrifier_rounds": 4},
            headline={
                "train_tokens_per_s": "dyneval_tokens_per_s",
                "train_bpc": "dyneval_bpc",
                "eval_tokens_per_s": "eval_exact_tokens_per_s",
                "eval_bpc": "test_bpc",
            },
        ),
    )
}


def repeat_checks(checks: Checks, setups: list, reps: list):
    """Outputs that every repeat of one seed must reproduce exactly."""
    for key in setups[0].fingerprint:
        checks.identical(f"repeat.setup.{key}", [s.fingerprint[key] for s in setups])
    for key in reps[0].fingerprint:
        if not key.endswith("nats_per_token"):
            checks.identical(f"repeat.{key}", [r.fingerprint[key] for r in reps])


def output_checks(checks: Checks, workload: Workload, vocab_size: int, reps: list):
    for name in workload.headline.values():
        if name.endswith("bpc"):
            for i, rep in enumerate(reps):
                checks.bpc(f"{name}.rep{i}", rep.bpc[name], vocab_size)
    for i, rep in enumerate(reps):
        fp = rep.fingerprint
        if "lr0_nats_per_token" in fp:
            checks.bitwise_equal(f"dyneval_lr0_equals_static.rep{i}",
                                 fp["lr0_nats_per_token"], fp["static_nats_per_token"])


def summarise(reps: list) -> dict:
    """The run's named figures.  A rate is all its tokens over all its
    seconds, and a duration the mean over its calls: the host's speed drifts
    for tens of seconds at a time, and a mean over calls spread through the
    run follows that drift less than a median of a few repeats does.
    `job_s` is the mean time of a pass through the timed commands."""
    named = {}
    for name in reps[0].calls:
        calls = [call for rep in reps for call in rep.calls[name]]
        seconds = sum(s for _, s in calls)
        tokens = sum(t for t, _ in calls)
        named[name] = tokens / seconds if name.endswith("tokens_per_s") else seconds / len(calls)
    for name in reps[0].bpc:
        named[name] = statistics.median(rep.bpc[name] for rep in reps)
    named["job_s"] = statistics.mean(rep.seconds for rep in reps)
    return named


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
