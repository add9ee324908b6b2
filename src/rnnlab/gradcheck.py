"""Finite-difference verification of every hand-derived backward pass.

Each check builds a tiny fixed instance whose differentiable leaves
(parameters plus, where relevant, inputs) are views of one float64 vector,
the model's own parameter vector for the model checks; it perturbs that
vector in place and compares the analytic gradient of a scalar probe loss,
formed on the model's window path, against central differences.  The model
checks difference the forward-only loss, a scoring pass, and take the
analytic side from the training pass, so a difference between the two paths
shows as an error.  Used by the gradcheck CLI command and the acceptance
tests."""

from __future__ import annotations

import functools

import numpy as np

from . import cells, mogrifier, model
from .cells import CellState
from .model import ModelConfig, WindowBatch
from .numerics import Rng, finite_difference_gradient, max_relative_error
from .ptree import named_arrays, views


def _on_one_vector(shapes):
    """`shapes` rebuilt with each array leaf a view of one new float64 vector,
    in canonical order, and that vector."""
    vector = np.zeros(sum(arr.size for _, arr in named_arrays(shapes)))
    return views(shapes, vector), vector


def _check_cell(kind: str, cap_input_gate: bool) -> float:
    rng = Rng(1234)
    batch, width, steps = 2, 8, 3
    shapes = [cells.new_params(kind, width, width), np.empty((steps, batch, width))]
    (params, xs), theta = _on_one_vector(shapes)
    cells.draw_params(rng, params, t_max=8.0)
    xs[...] = rng.uniform(-1.0, 1.0, xs.shape)
    probe_h = rng.uniform(-1.0, 1.0, (batch, width))
    probe_c = rng.uniform(-1.0, 1.0, (batch, width))
    state_mask = 0.5 + rng.random((batch, width)) if kind == "rlstm" else None
    # The steps run on a window cache, as in model.forward_window.
    states = np.zeros((steps + 1, batch, width))  # [0] the entry state, [t + 1] step t's
    window = cells.new_cache(kind, (steps, batch), width, width, c=states[1:])
    window.state_mask, window.capped, window.c_prev = state_mask, cap_input_gate, states[:-1]
    caches = [window.at(t) for t in range(steps)]
    step, work = getattr(cells, f"{kind}_forward"), cells.new_work(kind, (batch,), width)

    def loss(_):
        weights = cells.forward_weights(params)  # of the perturbed weights, as a window's
        h = np.zeros((batch, width))
        for x, cache in zip(xs, caches):
            np.concatenate((x, h), axis=-1, out=cache.xh)
            step(weights, cache, h, work)
        return float(np.sum(h * probe_h) + np.sum(states[-1] * probe_c))

    numeric = finite_difference_gradient(loss, theta)
    loss(theta)  # fill the caches at theta for the backward pass
    (param_grads, x_grads), analytic = _on_one_vector(shapes)
    dc, dh = probe_c.copy(), probe_h.copy()
    for t in range(steps - 1, -1, -1):
        dc, dh, x_grads[t][...] = cells.cell_backward(params, caches[t], dc, dh)
    cells.weight_grads(params, window, out=param_grads)
    return max_relative_error(analytic, numeric)


def _check_mogrifier(rounds: int, rank: int) -> float:
    rng = Rng(4321)
    batch, m, n = 2, 6, 8
    shapes = [mogrifier.new_params(m, n, rounds, rank), np.empty((batch, n)), np.empty((batch, m))]
    (params, h, x), theta = _on_one_vector(shapes)
    mogrifier.draw_params(rng, params, n)
    h[...] = rng.uniform(-1.0, 1.0, h.shape)
    x[...] = rng.uniform(-1.0, 1.0, x.shape)
    probe_h = rng.uniform(-1.0, 1.0, h.shape)
    probe_x = rng.uniform(-1.0, 1.0, x.shape)
    cache = mogrifier.new_cache(params, (batch,), m, n)  # as the model's, one step
    work = mogrifier.new_work(params, (batch,))

    def loss(_):
        cache.x_ladder[0][...], cache.h_ladder[0][...] = x, h
        mogrifier.mogrify_forward(mogrifier.bind(mogrifier.forward_weights(params), cache, work))
        return float(np.sum(cache.h_ladder[-1] * probe_h) + np.sum(cache.x_ladder[-1] * probe_x))

    numeric = finite_difference_gradient(loss, theta)
    loss(theta)  # fill the cache at theta for the backward pass
    (param_grads, dh, dx), analytic = _on_one_vector(shapes)
    dh[...], dx[...] = mogrifier.mogrify_backward(params, cache, probe_h, probe_x)
    mogrifier.weight_grads(params, cache, out=param_grads)
    return max_relative_error(analytic, numeric)


def model_instance(batch=1, carried=False, **overrides):
    """(params, config, window, masks) of a model check: a 2-layer model over
    a 4-step window; `overrides` are ModelConfig fields, `carried` starts the
    window from random carried-in states, (L, batch, n) arrays drawn layer
    after layer, c before h."""
    fields = dict(
        layers=2, state_size=8, vocab_size=6, cell="rlstm", mogrifier_rounds=2,
        tie_embeddings=False, t_max=6.0,
    )
    fields.update(overrides)
    config = ModelConfig(**fields)
    rng = Rng(999)
    params = model.init_model_params(rng, config)
    inputs = rng.integers(0, config.vocab_size, (batch, 4))
    inputs[0, 2] = inputs[0, 0]  # a repeated token exercises gradient scatter-add
    targets = rng.integers(0, config.vocab_size, (batch, 4))
    masks = model.sample_masks(rng, config, batch, 4, config.dropout_samples)
    states = None
    if carried:
        drawn = rng.uniform(-1.0, 1.0, (config.layers, 2, batch, config.state_size))
        states = CellState(drawn[:, 0], drawn[:, 1])
    return params, config, WindowBatch(inputs=inputs, targets=targets, states=states), masks


def _check_model(**instance) -> float:
    """The analytic gradient of the training window against central
    differences of the forward-only loss, run as scoring passes on one plan."""
    params, config, window, masks = model_instance(**instance)
    run = functools.partial(
        model.window_loss_with_masks, params, config, window, masks, model.WindowBuffers()
    )
    numeric = finite_difference_gradient(lambda _: run(backward=False)[0], params.vector)
    _, grads, _ = run()
    return max_relative_error(grads.vector, numeric)


def _dropout(keep: float) -> dict:
    return dict(keep_in=keep, keep_cell=keep, keep_state=keep, keep_out=keep)


# Smaller models for the configuration variants, so the suite stays quick.
_SMALL = dict(state_size=4, vocab_size=5)

# (name, model_instance arguments) of the model checks, in suite order.
MODEL_CHECKS = [
    ("model_rlstm", {}),
    ("model_lstm", dict(cell="lstm")),
    ("model_rlstm_dropout", _dropout(0.5)),
    ("model_tied", dict(tie_embeddings=True)),
    ("model_multisample_d2", dict(dropout_samples=2, **_dropout(0.7))),
    ("model_lowrank_r3", dict(mogrifier_rank=3, **_SMALL)),
    ("model_rounds3", dict(mogrifier_rounds=3, **_SMALL)),
    (
        "model_embedding_residual_row_mask",
        dict(residual_includes_embedding=True, input_mask_rows=True, **_dropout(0.6), **_SMALL),
    ),
    ("model_lstm_uncapped", dict(cell="lstm", cap_input_gate=False, **_SMALL)),
    ("model_batch2_carried", dict(batch=2, carried=True, **_dropout(0.7), **_SMALL)),
]


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
    results += [(name, _check_model(**instance)) for name, instance in MODEL_CHECKS]
    return results
