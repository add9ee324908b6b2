"""Optimization stack: Rectified Adam, Two-Tailed weight Averaging, gradient
clipping, and a training loop with divergence restarts (restore the best
state, multiply the learning rate by 0.9).

The model's arrays are views into one parameter vector and its gradients
views into one gradient vector, both in the canonical order of ptree and in
the model's dtype.  The optimizer, the averager and the clipping work on
those vectors directly; the optimizer moments and the averaging tails are
float64.

A Checkpoint is the whole training state: the parameters, the optimizer
state, the tails, the rng state and the best validation loss.  `train`
keeps its best state in one, `rnnlab train` saves that record unchanged
(checkpoint.py holds the file format) and `copy_checkpoint` is the one
place it is copied.
"""

from __future__ import annotations

import copy
import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from . import evaluation, model
from .model import ModelConfig
from .numerics import DivergenceError, Rng
from .ptree import named_arrays
# flatten is unused here; perfbench/selftest.py checks that its tracer rebinds training.flatten.
from .ptree import flatten  # noqa: F401


class TrainingDiverged(Exception):
    """Raised when training diverges more than max_restarts times."""


def _squares(a, axis=None):
    return np.sum(np.asarray(a, dtype=np.float64) ** 2, axis=axis)


def clip_global_norm(g, max_norm: float) -> float:
    """Scale the gradient vector of g, model gradients (g.vector), in place so
    its global norm is at most max_norm; returns the pre-clip norm.  It adds
    one float64 sum of squares per array in the order of the vector: e_in,
    b_out, each layer's arrays layer after layer, e_out_untied.  max_norm <= 0
    disables clipping."""
    head = [_squares(g.e_in), _squares(g.b_out)]
    layers = [_squares(a.reshape(len(a), -1), axis=1) for _, a in named_arrays(g.layers)]
    tail = [] if g.tied else [_squares(g.e_out_untied)]
    sums = [*head, *np.stack(layers, axis=1).ravel(), *tail]  # layers: [l, array]
    norm = float(np.sqrt(np.cumsum(sums)[-1]))  # cumsum adds left to right
    if max_norm > 0.0 and norm > max_norm:
        g.vector *= max_norm / norm
    return norm


@dataclass
class TrainOptions:
    lr: float = 3e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 10.0
    divergence_factor: float = 3.0
    lr_decay_on_restart: float = 0.9
    max_restarts: int = 20
    epochs: int = 1
    batch_size: int = 32
    window: int = 128
    val_interval: int = 0  # steps between validations; 0 = at each epoch end
    patience: int = 0  # validations without improvement before stopping; 0 = off
    target_val_nats: float = 0.0  # stop once validation reaches this; 0 = off
    max_train_seconds: float = 0.0  # wall-clock budget; 0 = off
    val_batch_size: int = 16
    val_window: int = 128

    def validate(self):
        """self, unless a value is out of range; NaN fails every check."""
        for name in ("lr", "eps", "lr_decay_on_restart"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        for name in ("epochs", "batch_size", "window", "val_batch_size", "val_window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in (
            "clip_norm", "max_restarts", "val_interval", "patience", "target_val_nats",
            "max_train_seconds",
        ):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 1.0 < self.divergence_factor:
            raise ValueError(f"divergence_factor must exceed 1, got {self.divergence_factor}")
        return self


@dataclass
class RAdamState:
    m: np.ndarray  # flat first moment, canonical parameter order
    v: np.ndarray  # flat second moment
    step: int
    lr: float
    beta1: float
    beta2: float
    eps: float


def radam_init(
    theta, lr: float, beta1=TrainOptions.beta1, beta2=TrainOptions.beta2, eps=TrainOptions.eps
) -> RAdamState:
    size = theta.size
    return RAdamState(np.zeros(size), np.zeros(size), 0, lr, beta1, beta2, eps)


def rectification_rho(step: int, beta2: float) -> float:
    """rho_t, the approximated SMA length after `step` updates."""
    rho_inf = 2.0 / (1.0 - beta2) - 1.0
    b2t = beta2**step
    return rho_inf - 2.0 * step * b2t / (1.0 - b2t)


def rectification_term(step: int, beta2: float):
    """The variance-rectification factor r_t, or None while rho_t <= 4
    (the momentum-only warmup branch)."""
    rho_inf = 2.0 / (1.0 - beta2) - 1.0
    rho_t = rectification_rho(step, beta2)
    if rho_t <= 4.0:
        return None
    return np.sqrt(
        ((rho_t - 4.0) * (rho_t - 2.0) * rho_inf) / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho_t)
    )


def radam_step(state: RAdamState, theta: np.ndarray, g: np.ndarray):
    """One Rectified Adam update of the parameter vector theta, in place,
    from the gradient vector g.

    While the variance estimate is untrustworthy (rho_t <= 4) only the
    bias-corrected momentum is applied; afterwards the usual adaptive step is
    scaled by the rectification term.
    """
    if not np.all(np.isfinite(g)):
        raise DivergenceError("non-finite gradient; no update applied")
    state.step += 1
    t = state.step
    state.m += (1.0 - state.beta1) * (g - state.m)
    state.v += (1.0 - state.beta2) * (g * g - state.v)
    m_hat = state.m / (1.0 - state.beta1**t)
    r = rectification_term(t, state.beta2)
    if r is None:
        update = state.lr * m_hat
    else:
        v_hat = np.sqrt(state.v / (1.0 - state.beta2**t))
        update = state.lr * r * m_hat / (v_hat + state.eps)
    theta -= update


@dataclass
class Tail:
    mean: np.ndarray  # running mean of iterates since `start`
    start: int  # global iterate index at which this tail began
    count: int


@dataclass
class TtaState:
    long: Tail
    short: Tail
    step: int  # iterates seen so far


def tta_init(theta) -> TtaState:
    return TtaState(Tail(np.zeros(theta.size), 0, 0), Tail(np.zeros(theta.size), 0, 0), 0)


def tta_update(state: TtaState, theta) -> TtaState:
    """Fold the current iterate, the parameter vector theta, into both
    running means."""
    state.step += 1
    for tail in (state.long, state.short):
        tail.count += 1
        tail.mean += (theta - tail.mean) / tail.count
    return state


def tta_evaluate_and_swap(state: TtaState, val_loss_fn):
    """Validate both tail means; return the better one (flat vector).

    If the short tail is at least as good as the long one, the short tail
    becomes the new long tail and a fresh, empty short tail starts at the
    current step.  val_loss_fn receives a flat weight vector.
    """
    if state.long.count == 0 or state.short.count == 0:
        raise ValueError("both tails must contain at least one iterate")
    loss_long = val_loss_fn(state.long.mean)
    loss_short = val_loss_fn(state.short.mean)
    if loss_short <= loss_long:
        best = state.short.mean.copy()
        best_loss = loss_short
        state.long = state.short
        state.short = Tail(np.zeros_like(best), state.step, 0)
    else:
        best = state.long.mean.copy()
        best_loss = loss_long
    return best, best_loss, state


@dataclass
class Checkpoint:
    """The training state: what a restart restores and a checkpoint file
    holds.  The parameters are views of a vector of their own."""

    config: ModelConfig
    params: model.ModelParams
    radam: RAdamState
    tta: TtaState
    rng_state: dict
    best_val_nats: float


def copy_checkpoint(ckpt: Checkpoint) -> Checkpoint:
    """A copy of ckpt that shares no array or dict with it."""
    return dataclasses.replace(
        ckpt,
        params=model.empty_model_params(ckpt.config, ckpt.params.vector.copy()),
        radam=dataclasses.replace(ckpt.radam, m=ckpt.radam.m.copy(), v=ckpt.radam.v.copy()),
        tta=copy.deepcopy(ckpt.tta),
        rng_state=copy.deepcopy(ckpt.rng_state),
    )


@dataclass
class TrainResult:
    params: model.ModelParams  # live parameters at loop exit
    radam: RAdamState
    tta: TtaState
    best: Checkpoint  # the state at the best validation (raw weights)
    tta_average: np.ndarray  # best tail mean at the last validation
    best_val_nats: float
    tta_val_nats: float
    metrics_lines: list
    restarts: int
    steps: int
    stop_reason: str


def _validation_nats(params, config, stream, opts: TrainOptions) -> float:
    report = evaluation.evaluate_static(
        params,
        config,
        stream,
        temperature=1.0,
        batch_size=opts.val_batch_size,
        window=opts.val_window,
    )
    return report.nats_per_token


def train(
    config: ModelConfig,
    opts: TrainOptions,
    train_stream: np.ndarray,
    valid_stream: np.ndarray,
    rng: Rng,
    loss_hook=None,
    metrics_sink=None,
) -> TrainResult:
    """Run the full training loop and return the final state plus metrics.

    loss_hook(step, loss) may rewrite the batch loss before the divergence
    test (the test suite uses it to inject failures); it sees only the steps
    whose forward pass returned a loss.  metrics_sink receives each metrics
    line as it is produced.
    """
    config.validate()
    opts.validate()
    evaluation.require_scorable(valid_stream, opts.val_batch_size, "validation stream")
    params = model.init_model_params(rng, config)
    radam = radam_init(params.vector, opts.lr, opts.beta1, opts.beta2, opts.eps)
    tta = tta_init(params.vector)

    rows = data_mod.batchify(np.asarray(train_stream), opts.batch_size)
    if data_mod.count_windows(rows.shape[1], opts.window) == 0:
        raise ValueError("training stream too short for one window")

    def snapshot(val_nats) -> Checkpoint:
        return copy_checkpoint(Checkpoint(config, params, radam, tta, rng.state(), val_nats))

    best = snapshot(float("inf"))
    buffers = model.WindowBuffers()
    tta_average = params.vector.astype(np.float64)
    tta_val = float("inf")
    metrics = []
    restarts = 0
    step = 0
    stop_reason = "completed"
    bad_validations = 0
    loss_sum, loss_count = 0.0, 0
    started = time.monotonic()
    states = None

    def emit(line: str):
        metrics.append(line)
        if metrics_sink is not None:
            metrics_sink(line)

    def tail_loss(mean) -> float:
        return _validation_nats(model.empty_model_params(config, mean), config, valid_stream, opts)

    def validate(epoch: int) -> bool:
        """Run a validation event; returns True when training should stop."""
        nonlocal tta_average, tta_val, bad_validations, loss_sum, loss_count, best
        val_nats = _validation_nats(params, config, valid_stream, opts)
        if tta.short.count > 0:
            tta_average, tta_val, _ = tta_evaluate_and_swap(tta, tail_loss)
        if val_nats < best.best_val_nats:
            best = snapshot(val_nats)
            bad_validations = 0
        else:
            bad_validations += 1
        train_nats = loss_sum / max(loss_count, 1)
        loss_sum, loss_count = 0.0, 0
        emit(
            f"event=val step={step} epoch={epoch} train_nats={train_nats!r} "
            f"val_nats={val_nats!r} tta_nats={tta_val!r} lr={radam.lr!r} restarts={restarts}"
        )
        return (opts.patience > 0 and bad_validations >= opts.patience) or (
            opts.target_val_nats > 0 and min(val_nats, tta_val) <= opts.target_val_nats
        )

    for epoch in range(opts.epochs):
        for batch in data_mod.windows(rows, opts.window):
            step += 1
            batch.states = states
            try:
                loss, grads, new_states = model.loss_multisample(
                    params, config, batch, rng, config.dropout_samples, buffers
                )
                if loss_hook is not None:
                    loss = loss_hook(step, loss)
                if not np.isfinite(loss):
                    raise DivergenceError(f"non-finite loss at step {step}")
                if loss > opts.divergence_factor * best.best_val_nats:  # inf before a validation
                    raise DivergenceError(
                        f"loss {loss:.6g} above {opts.divergence_factor} x best validation"
                    )
                clip_global_norm(grads, opts.clip_norm)
                radam_step(radam, params.vector, grads.vector)
                del grads  # freed before the next window allocates its own
            except DivergenceError as err:
                restarts += 1
                if restarts > opts.max_restarts:
                    raise TrainingDiverged(
                        f"diverged {restarts} times (limit {opts.max_restarts}), last cause: {err}"
                    ) from err
                # Back to a copy of the best state with the learning rate decayed
                # from its current value.  The rng is not rewound: the masks after
                # a restart are fresh draws, so the run does not replay the draws
                # that led it to diverge.
                restored = copy_checkpoint(best)
                params, tta = restored.params, restored.tta
                radam = dataclasses.replace(restored.radam, lr=radam.lr * opts.lr_decay_on_restart)
                states = None  # carried activations are suspect; restart context
                emit(
                    f"event=restart step={step} epoch={epoch} cause={str(err)!r} "
                    f"lr={radam.lr!r} restarts={restarts}"
                )
                continue
            tta_update(tta, params.vector)
            states = new_states
            loss_sum += loss
            loss_count += 1
            if opts.val_interval > 0 and step % opts.val_interval == 0 and validate(epoch):
                stop_reason = "early_stop"
                break
            if opts.max_train_seconds > 0 and time.monotonic() - started > opts.max_train_seconds:
                stop_reason = "time_budget"
                break
        else:
            if opts.val_interval <= 0 and validate(epoch):
                stop_reason = "early_stop"
        if stop_reason != "completed":
            break

    # A loop that ended between validations runs a final one, so the best state
    # and the metrics log reflect the end of training.
    if loss_count > 0 and validate(epoch) and stop_reason == "completed":
        stop_reason = "early_stop"

    return TrainResult(
        params=params,
        radam=radam,
        tta=tta,
        best=best,
        tta_average=tta_average,
        best_val_nats=best.best_val_nats,
        tta_val_nats=tta_val,
        metrics_lines=metrics,
        restarts=restarts,
        steps=step,
        stop_reason=stop_reason,
    )
