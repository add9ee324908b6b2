"""Metric definitions: the end-to-end metrics of an untraced run and the
per-layer metrics derived from the spans of a traced run.

Scopes of the per-layer metrics:
- `*_per_window`, `*_per_step` and `model.loss_multisample.*` are medians
  over every training window of the traced pass (set-up included, so
  eval-adapt reports the windows of the checkpoint it trains in set-up); the
  median skips the shorter last window of an epoch, so counts are exact;
- `corpus.*`, `data.*` and `checkpoint.*` cover set-up and the timed commands;
- everything else covers the timed commands only.
"""

from __future__ import annotations

import os

import numpy as np

# name, unit, better, bound (share of the parent's median), meaning.  The
# wall-time bounds are the largest allowed because the shared host's speed
# drifts by 20-30% for tens of seconds at a time; see README.md.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "median wall time of one set-up: corpus generation and encoding, and for "
     "eval-adapt the training of the evaluated checkpoint"),
    ("job_s", "s", "lower", 0.25,
     "mean wall time of one pass through the workload's timed commands"),
    ("train_tokens_per_s", "tokens/s", "higher", 0.25,
     "target tokens per second, all calls of the run together, of the "
     "gradient-taking command: rnnlab train, or the adapting rnnlab dyneval "
     "on eval-adapt"),
    ("train_bpc", "bits/byte", "lower", 0.1,
     "bits per byte printed by that command"),
    ("eval_tokens_per_s", "tokens/s", "higher", 0.25,
     "target tokens per second, all calls of the run together, of rnnlab "
     "evaluate: batch 16 on the train workloads, batch 1 (exact) on eval-adapt"),
    ("eval_bpc", "bits/byte", "lower", 0.1,
     "test bits per byte printed by that evaluate command"),
    ("peak_rss_mb", "MB", "lower", 0.25,
     "ru_maxrss of the benchmark process, which runs the workload"),
    ("ok_ops_ratio", "ratio", "higher", 0.01,
     "1 - failed_ops_ratio: operations without a non-zero exit, a training "
     "restart or a failed check, over commands plus training windows"),
]

# name, unit, better
PER_LAYER = [
    ("numerics.gemm.calls_per_window", "count", "lower"),
    ("numerics.gemm.gflop_per_window", "GFLOP-computed", "lower"),
    ("numerics.gemm.calls", "count", "lower"),
    ("numerics.gemm.self_ms", "ms", "lower"),
    ("numerics.sigmoid.self_ms", "ms", "lower"),
    ("numerics.log_softmax.self_ms", "ms", "lower"),
    ("numerics.bernoulli_mask.self_ms", "ms", "lower"),
    ("cells.forward.calls", "count", "lower"),
    ("cells.forward.self_ms", "ms", "lower"),
    ("cells.backward.calls", "count", "lower"),
    ("cells.backward.self_ms", "ms", "lower"),
    ("mogrifier.forward.calls", "count", "lower"),
    ("mogrifier.forward.self_ms", "ms", "lower"),
    ("mogrifier.backward.calls", "count", "lower"),
    ("mogrifier.backward.self_ms", "ms", "lower"),
    ("model.forward_window.calls_per_step", "count", "lower"),
    ("model.forward_window.self_ms", "ms", "lower"),
    ("model.backward_window.self_ms", "ms", "lower"),
    ("model.loss_multisample.ms_p50", "ms", "lower"),
    ("model.loss_multisample.ms_p90", "ms", "lower"),
    ("model.loss_multisample.calls", "count", "higher"),
    ("model.sample_masks.self_ms", "ms", "lower"),
    ("ptree.accumulate.calls_per_window", "count", "lower"),
    ("ptree.accumulate.self_ms", "ms", "lower"),
    ("ptree.flatten.calls", "count", "lower"),
    ("ptree.flatten.self_ms", "ms", "lower"),
    ("ptree.unflatten_into.self_ms", "ms", "lower"),
    ("training.radam_step.self_ms", "ms", "lower"),
    ("training.tta_update.self_ms", "ms", "lower"),
    ("training.clip_global_norm.self_ms", "ms", "lower"),
    ("training.validation.ms", "ms", "lower"),
    ("training.steps.accepted_ratio", "ratio", "higher"),
    ("evaluation.evaluate_static.self_ms", "ms", "lower"),
    ("evaluation.forward_passes_per_tune", "count", "lower"),
    ("evaluation.evaluate_dynamic.self_ms", "ms", "lower"),
    ("evaluation.tune_dyneval.passes", "count", "lower"),
    ("corpus.write_splits.ms", "ms", "lower"),
    ("data.load_splits.ms", "ms", "lower"),
    ("data.encode.ms", "ms", "lower"),
    ("checkpoint.save_checkpoint.ms", "ms", "lower"),
    ("checkpoint.save_checkpoint.bytes", "bytes", "lower"),
    ("checkpoint.load_checkpoint.ms", "ms", "lower"),
    ("process.cpu_share", "ratio", "higher"),
    ("trace.wall_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]


def layer_metrics(spans, checkpoint_path, steps: int, restarts: int,
                  cpu_share: float, wall_ratio: float) -> dict:
    job = spans.under("bench.job")
    loss = "model.loss_multisample"
    windows = spans.count(loss)
    loss_ms = spans.durations_ms(loss)
    in_train = spans.under("training.train") & job

    def job_self(*labels):
        return sum(spans.self_ms(label, job) for label in labels)

    def job_calls(*labels):
        return sum(spans.count(label, job) for label in labels)

    per_call = spans.median_per_parent

    saves = spans.count("checkpoint.save_checkpoint")
    values = {
        "numerics.gemm.calls_per_window": per_call("numerics.gemm", loss),
        "numerics.gemm.gflop_per_window": per_call("numerics.gemm", loss, spans.work) / 1e9,
        "numerics.gemm.calls": job_calls("numerics.gemm"),
        "numerics.gemm.self_ms": job_self("numerics.gemm"),
        "numerics.sigmoid.self_ms": job_self("numerics.sigmoid"),
        "numerics.log_softmax.self_ms": job_self("numerics.log_softmax"),
        "numerics.bernoulli_mask.self_ms": job_self("numerics.bernoulli_mask"),
        "cells.forward.calls": job_calls("cells.lstm_forward", "cells.rlstm_forward"),
        "cells.forward.self_ms": job_self("cells.lstm_forward", "cells.rlstm_forward"),
        "cells.backward.calls": job_calls("cells.lstm_backward", "cells.rlstm_backward"),
        "cells.backward.self_ms": job_self("cells.lstm_backward", "cells.rlstm_backward"),
        "mogrifier.forward.calls": job_calls("mogrifier.mogrify_forward"),
        "mogrifier.forward.self_ms": job_self("mogrifier.mogrify_forward"),
        "mogrifier.backward.calls": job_calls("mogrifier.mogrify_backward"),
        "mogrifier.backward.self_ms": job_self("mogrifier.mogrify_backward"),
        "model.forward_window.calls_per_step": per_call("model.forward_window", loss),
        "model.forward_window.self_ms": job_self("model.forward_window"),
        "model.backward_window.self_ms": job_self("model.backward_window"),
        "model.loss_multisample.ms_p50": float(np.percentile(loss_ms, 50)) if windows else 0.0,
        "model.loss_multisample.ms_p90": float(np.percentile(loss_ms, 90)) if windows else 0.0,
        "model.loss_multisample.calls": windows,
        "model.sample_masks.self_ms": job_self("model.sample_masks"),
        "ptree.accumulate.calls_per_window": per_call("ptree.accumulate", loss),
        "ptree.accumulate.self_ms": job_self("ptree.accumulate"),
        "ptree.flatten.calls": job_calls("ptree.flatten"),
        "ptree.flatten.self_ms": job_self("ptree.flatten"),
        "ptree.unflatten_into.self_ms": job_self("ptree.unflatten_into"),
        "training.radam_step.self_ms": job_self("training.radam_step"),
        "training.tta_update.self_ms": job_self("training.tta_update"),
        "training.clip_global_norm.self_ms": job_self("training.clip_global_norm"),
        "training.validation.ms": spans.total_ms("evaluation.evaluate_static", in_train),
        "training.steps.accepted_ratio": (steps - restarts) / steps if steps else 0.0,
        "evaluation.evaluate_static.self_ms": job_self("evaluation.evaluate_static"),
        "evaluation.forward_passes_per_tune":
            per_call("model.forward_window", "evaluation.tune_temperature"),
        "evaluation.evaluate_dynamic.self_ms": job_self("evaluation.evaluate_dynamic"),
        "evaluation.tune_dyneval.passes":
            per_call("evaluation.evaluate_dynamic", "evaluation.tune_dyneval"),
        "corpus.write_splits.ms": spans.total_ms("corpus.write_splits"),
        "data.load_splits.ms": spans.total_ms("data.load_splits"),
        "data.encode.ms": spans.total_ms("data.encode"),
        "checkpoint.save_checkpoint.ms": spans.total_ms("checkpoint.save_checkpoint"),
        "checkpoint.save_checkpoint.bytes":
            os.path.getsize(checkpoint_path) if saves and os.path.exists(checkpoint_path) else 0,
        "checkpoint.load_checkpoint.ms": spans.total_ms("checkpoint.load_checkpoint"),
        "process.cpu_share": cpu_share,
        "trace.wall_ratio": wall_ratio,
        "trace.spans": len(spans),
    }
    return values
