"""Finite-difference verification of every hand-derived backward pass.

Each check builds a tiny fixed instance, packs the differentiable leaves
(parameters plus, where relevant, inputs) into one flat vector, and compares
the analytic gradient of a scalar probe loss against central differences.
Used by the gradcheck CLI command and the acceptance tests."""

from __future__ import annotations

import numpy as np

from . import cells, mogrifier, model
from .cells import CellState
from .model import ModelConfig, WindowBatch
from .numerics import Rng, finite_difference_gradient, max_relative_error
from .ptree import accumulate, flatten, unflatten_into, zeros_like_tree


def _check_cell(kind: str, cap_input_gate: bool) -> float:
    rng = Rng(1234)
    batch, width, steps = 2, 8, 3
    params = cells.init_cell_params(rng, width, width, kind, t_max=8.0)
    xs = [rng.uniform(-1.0, 1.0, (batch, width)) for _ in range(steps)]
    probe_h = rng.uniform(-1.0, 1.0, (batch, width))
    probe_c = rng.uniform(-1.0, 1.0, (batch, width))
    state_mask = 0.5 + rng.random((batch, width)) if kind == "rlstm" else None

    pack = [params, xs]
    theta0 = flatten(pack)

    def rollout():
        state = CellState.zeros(batch, width)
        caches = []
        for x in xs:
            if kind == "rlstm":
                state, cache = cells.rlstm_forward(params, state, x, state_mask)
            else:
                state, cache = cells.lstm_forward(params, state, x, cap_input_gate)
            caches.append(cache)
        return state, caches

    def loss_fn(theta):
        unflatten_into(pack, theta)
        state, _ = rollout()
        return float(np.sum(state.h * probe_h) + np.sum(state.c * probe_c))

    numeric = finite_difference_gradient(loss_fn, theta0)
    unflatten_into(pack, theta0)
    _, caches = rollout()
    param_grads = zeros_like_tree(params)
    x_grads = [np.zeros_like(x) for x in xs]
    dc, dh = probe_c.copy(), probe_h.copy()
    for t in range(steps - 1, -1, -1):
        step_grads, dc, dh, dx = cells.cell_backward(params, caches[t], dc, dh)
        x_grads[t] = dx
        accumulate(param_grads, step_grads)
    analytic = flatten([param_grads, x_grads])
    return max_relative_error(analytic, numeric)


def _check_mogrifier(rounds: int, rank: int) -> float:
    rng = Rng(4321)
    batch, x_width, h_width = 2, 6, 8
    params = mogrifier.init_mogrifier_params(rng, x_width, h_width, rounds, rank)
    h = rng.uniform(-1.0, 1.0, (batch, h_width))
    x = rng.uniform(-1.0, 1.0, (batch, x_width))
    probe_h = rng.uniform(-1.0, 1.0, (batch, h_width))
    probe_x = rng.uniform(-1.0, 1.0, (batch, x_width))

    pack = [params, h, x]
    theta0 = flatten(pack)

    def loss_fn(theta):
        unflatten_into(pack, theta)
        h_out, x_out, _ = mogrifier.mogrify_forward(params, h, x)
        return float(np.sum(h_out * probe_h) + np.sum(x_out * probe_x))

    numeric = finite_difference_gradient(loss_fn, theta0)
    unflatten_into(pack, theta0)
    _, _, cache = mogrifier.mogrify_forward(params, h, x)
    mog_grads, dh, dx = mogrifier.mogrify_backward(params, cache, probe_h, probe_x)
    analytic = flatten([mog_grads, dh, dx])
    return max_relative_error(analytic, numeric)


def _check_model(cell: str, tied: bool, samples: int, keep: float) -> float:
    config = ModelConfig(
        layers=2,
        state_size=8,
        vocab_size=6,
        cell=cell,
        mogrifier_rounds=2,
        keep_in=keep,
        keep_cell=keep,
        keep_state=keep,
        keep_out=keep,
        tie_embeddings=tied,
        dropout_samples=samples,
        t_max=6.0,
    )
    rng = Rng(999)
    params = model.init_model_params(rng, config)
    inputs = rng.integers(0, config.vocab_size, (1, 4))
    inputs[0, 2] = inputs[0, 0]  # a repeated token exercises gradient scatter-add
    targets = rng.integers(0, config.vocab_size, (1, 4))
    masks = model.sample_masks(rng, config, 1, 4, samples)
    batch = WindowBatch(inputs=inputs, targets=targets, states=None)
    theta0 = flatten(params)

    def loss_fn(theta):
        unflatten_into(params, theta)
        loss, _, _ = model.window_loss_with_masks(params, config, batch, masks)
        return loss

    numeric = finite_difference_gradient(loss_fn, theta0)
    unflatten_into(params, theta0)
    _, grads, _ = model.window_loss_with_masks(params, config, batch, masks)
    return max_relative_error(flatten(grads), numeric)


def gradient_check_suite():
    """Run every gradient check; returns [(component name, max relative error)]."""
    results = [
        ("lstm_capped", _check_cell("lstm", True)),
        ("lstm_uncapped", _check_cell("lstm", False)),
        ("rlstm", _check_cell("rlstm", True)),
    ]
    for rounds in (1, 2, 5):
        results.append((f"mogrify_r{rounds}", _check_mogrifier(rounds, 0)))
        results.append((f"mogrify_r{rounds}_lowrank", _check_mogrifier(rounds, 3)))
    results.append(("model_rlstm", _check_model("rlstm", False, 1, 1.0)))
    results.append(("model_lstm", _check_model("lstm", False, 1, 1.0)))
    results.append(("model_rlstm_dropout", _check_model("rlstm", False, 1, 0.5)))
    results.append(("model_tied", _check_model("rlstm", True, 1, 1.0)))
    results.append(("model_multisample_d2", _check_model("rlstm", False, 2, 0.7)))
    return results
