import dataclasses
import importlib
import pathlib
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest

from rnnlab import (
    cells, checkpoint, data, evaluation, gradcheck, model, mogrifier, numerics, ptree, training,
)
from rnnlab.cells import CellState
from rnnlab.model import ModelConfig, WindowBatch
from rnnlab.numerics import DivergenceError, Rng, max_relative_error
from rnnlab.ptree import accumulate, flatten


def tiny_config(**overrides):
    base = dict(
        layers=2,
        state_size=4,
        vocab_size=5,
        cell="rlstm",
        mogrifier_rounds=2,
        tie_embeddings=True,
    )
    base.update(overrides)
    return ModelConfig(**base).validate()


def layer_of(stack, l):
    """Layer l's views of a stack of layers: parameters or carried states of
    (L, ...) arrays."""
    return ptree.map_arrays(stack, lambda a: a[l])


def random_states(rng, layers, batch, n, dtype=np.float64):
    """Carried states of (L, batch, n) arrays, drawn per layer, c before h."""
    drawn = [rng.uniform(-1, 1, (batch, n)) for _ in range(2 * layers)]
    return CellState(np.stack(drawn[0::2]).astype(dtype), np.stack(drawn[1::2]).astype(dtype))


def assert_same_states(got, want):
    assert got.c.dtype == want.c.dtype and got.h.dtype == want.h.dtype
    assert got.c.shape == want.c.shape and got.h.shape == want.h.shape
    assert got.c.tobytes() == want.c.tobytes() and got.h.tobytes() == want.h.tobytes()


def naive_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def oracle_forward(params, config, inputs, masks, temperature=1.0):
    """Straight-line reimplementation of the whole network from the update
    equations, sharing no code with the module under test."""
    batch, horizon = inputs.shape
    n = config.state_size
    c = [np.zeros((batch, n)) for _ in range(config.layers)]
    h = [np.zeros((batch, n)) for _ in range(config.layers)]
    e_out = params.e_in.T if params.tied else params.e_out_untied
    out = np.empty((batch, horizon, config.vocab_size))
    for t in range(horizon):
        x0 = params.e_in[inputs[:, t]] * masks.m_in[t]
        xhats = []
        for l in range(config.layers):
            if l == 0:
                x = x0
            else:
                x = sum(xhats)
                if config.residual_includes_embedding:
                    x = x + x0
            hh = h[l] * masks.m_state[l]
            p = layer_of(params.layers, l)
            for r in range(1, p.mog.rounds + 1):
                if r % 2 == 1:
                    w = p.mog.x_gates[r // 2]
                    if hasattr(w, "u"):
                        w = w.u @ w.v
                    x = 2.0 * naive_sigmoid(hh @ w.T) * x
                else:
                    w = p.mog.h_gates[r // 2 - 1]
                    if hasattr(w, "u"):
                        w = w.u @ w.v
                    hh = 2.0 * naive_sigmoid(x @ w.T) * hh
            cp = cells.gate_views(p.cell)
            i = naive_sigmoid(x @ cp["w_ix"].T + hh @ cp["w_ih"].T + cp["b_i"])
            j = np.tanh(x @ cp["w_jx"].T + hh @ cp["w_jh"].T + cp["b_j"])
            if config.cell == "rlstm":
                f = naive_sigmoid((i * j) @ cp["w_fu"].T + hh @ cp["w_fh"].T + cp["b_f"])
                g = np.minimum(i, 1.0 - f)
                c[l] = f * c[l] + g * j
                o = naive_sigmoid((c[l] * masks.m_state[l]) @ cp["w_oc"].T + cp["b_o"])
            else:
                f = naive_sigmoid(x @ cp["w_fx"].T + hh @ cp["w_fh"].T + cp["b_f"])
                g = np.minimum(i, 1.0 - f) if config.cap_input_gate else i
                c[l] = f * c[l] + g * j
                o = naive_sigmoid(x @ cp["w_ox"].T + hh @ cp["w_oh"].T + cp["b_o"])
            h[l] = o * np.tanh(c[l])
            xhats.append(h[l] * masks.m_cell[l, t])
        logits = (sum(xhats) * masks.m_out[t]) @ e_out + params.b_out
        z = logits / temperature
        z = z - z.max(axis=-1, keepdims=True)
        out[:, t, :] = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return out


class TestForwardWindow:
    def test_shapes_and_normalization(self):
        config = tiny_config()
        rng = Rng(300)
        params = model.init_model_params(rng, config)
        inputs = rng.integers(0, config.vocab_size, (3, 6))
        masks = model.ones_masks(config, 3, 6)
        log_probs, cache, states = model.forward_window(params, config, inputs, masks)
        assert log_probs.shape == (3, 6, config.vocab_size)
        sums = np.exp(log_probs).sum(axis=-1)
        assert np.max(np.abs(sums - 1.0)) < 1e-12
        assert states.c.shape == states.h.shape == (config.layers, 3, config.state_size)
        assert cache.probs.shape == log_probs.shape

    @pytest.mark.parametrize("cell", ["rlstm", "lstm"])
    @pytest.mark.parametrize("tied", [True, False])
    def test_matches_straight_line_oracle(self, cell, tied):
        config = tiny_config(cell=cell, tie_embeddings=tied, mogrifier_rounds=3)
        rng = Rng(301)
        params = model.init_model_params(rng, config)
        inputs = rng.integers(0, config.vocab_size, (2, 4))
        masks = model.sample_masks(
            rng,
            tiny_config(cell=cell, keep_in=0.7, keep_cell=0.8, keep_state=0.9, keep_out=0.7),
            2,
            4,
        )
        log_probs, _, _ = model.forward_window(params, config, inputs, masks)
        ref = oracle_forward(params, config, inputs, masks)
        assert np.max(np.abs(log_probs - ref)) < 1e-12

    def test_oracle_with_lowrank_and_embedding_residual(self):
        config = tiny_config(mogrifier_rounds=5, mogrifier_rank=2, residual_includes_embedding=True)
        rng = Rng(302)
        params = model.init_model_params(rng, config)
        inputs = rng.integers(0, config.vocab_size, (2, 3))
        masks = model.ones_masks(config, 2, 3)
        log_probs, _, _ = model.forward_window(params, config, inputs, masks, temperature=1.7)
        ref = oracle_forward(params, config, inputs, ones_reference(config, 2, 3), temperature=1.7)
        assert np.max(np.abs(log_probs - ref)) < 1e-12

    def test_zero_params_uniform_output(self):
        config = tiny_config()
        params = model.empty_model_params(config)
        inputs = np.zeros((2, 3), dtype=np.int64)
        log_probs, _ = model.predict_deterministic(params, config, inputs)
        assert np.allclose(log_probs, -np.log(config.vocab_size), atol=1e-14)

    def test_zero_params_softmax_of_output_bias(self):
        config = tiny_config()
        params = model.empty_model_params(config)
        params.b_out[:] = np.arange(config.vocab_size, dtype=np.float64)
        log_probs, _ = model.predict_deterministic(params, config, np.zeros((1, 2), dtype=np.int64))
        z = params.b_out - np.log(np.exp(params.b_out).sum())
        assert np.allclose(log_probs[0, 0], z, atol=1e-12)
        assert np.allclose(log_probs[0, 1], z, atol=1e-12)

    def test_token_id_out_of_range(self):
        config = tiny_config()
        params = model.empty_model_params(config)
        masks = model.ones_masks(config, 1, 1)
        with pytest.raises(ValueError, match="out of vocabulary"):
            model.forward_window(params, config, np.array([[config.vocab_size]]), masks)
        with pytest.raises(ValueError, match="out of vocabulary"):
            model.forward_window(params, config, np.array([[-1]]), masks)

    def test_non_finite_logits_raise(self):
        config = tiny_config()
        params = model.init_model_params(Rng(1), config)
        params.b_out[:] = np.nan
        masks = model.ones_masks(config, 1, 1)
        with pytest.raises(DivergenceError):
            model.forward_window(params, config, np.array([[0]]), masks)

    @pytest.mark.parametrize("backward", [False, True])
    def test_carried_states_not_mutated(self, backward):
        # The window works on a copy: evaluation hands one states object to
        # several tracks.
        config = tiny_config()
        rng = Rng(303)
        params = model.init_model_params(rng, config)
        states = random_states(rng, config.layers, 2, config.state_size)
        before = CellState(states.c.copy(), states.h.copy())
        masks = model.ones_masks(config, 2, 3)
        _, _, final = model.forward_window(
            params, config, rng.integers(0, 5, (2, 3)), masks, states, backward=backward
        )
        assert_same_states(states, before)
        assert not np.shares_memory(final.c, states.c) and not np.shares_memory(final.h, states.h)

    @pytest.mark.parametrize("dtype, other", [("float64", np.float32), ("float32", np.float64)])
    @pytest.mark.parametrize("backward", [False, True])
    def test_carried_states_of_another_dtype_run_in_the_model_dtype(self, dtype, other, backward):
        config = tiny_config(dtype=dtype)
        rng = Rng(304)
        params = model.init_model_params(rng, config)
        states = random_states(rng, config.layers, 2, config.state_size, other)
        cast = CellState(states.c.astype(dtype), states.h.astype(dtype))
        inputs, masks = rng.integers(0, 5, (2, 6)), model.ones_masks(config, 2, 6)
        got = model.forward_window(params, config, inputs, masks, states, backward=backward)
        want = model.forward_window(params, config, inputs, masks, cast, backward=backward)
        assert got[0].tobytes() == want[0].tobytes()
        assert_same_states(got[2], want[2])
        assert got[2].c.dtype == np.dtype(dtype)

    @pytest.mark.parametrize(
        "layers, batch, n",
        [(3, 2, 4), (1, 2, 4), (2, 3, 4), (2, 2, 5)],
        ids=["extra-layer", "missing-layer", "wrong-batch", "wrong-width"],
    )
    @pytest.mark.parametrize("wrong", ["c", "h"])
    def test_carried_states_of_the_wrong_shape_are_refused(self, layers, batch, n, wrong):
        config = tiny_config()  # 2 layers of width 4, here at batch 2
        params = model.init_model_params(Rng(305), config)
        right = np.zeros((2, 2, 4))
        states = CellState(right, right)
        setattr(states, wrong, np.zeros((layers, batch, n)))
        message = (
            rf"carried state {wrong} has shape \({layers}, {batch}, {n}\), "
            r"not \(L, B, n\) = \(2, 2, 4\)"
        )
        inputs, masks = np.zeros((2, 3), np.int64), model.ones_masks(config, 2, 3)
        for backward in (False, True):
            with pytest.raises(ValueError, match=message):
                model.forward_window(params, config, inputs, masks, states, backward=backward)
            with pytest.raises(ValueError, match=message):
                model.window_loss_with_masks(
                    params, config, WindowBatch(inputs, inputs, states), masks, backward=backward
                )

    def test_rlstm_states_stay_bounded(self):
        config = tiny_config()
        rng = Rng(304)
        params = model.init_model_params(rng, config)
        states = None
        for _ in range(50):
            inputs = rng.integers(0, config.vocab_size, (2, 4))
            _, states = model.predict_deterministic(params, config, inputs, states=states)
            assert np.max(np.abs(states.c)) <= 1.0 + 1e-12


class TestStatefulness:
    def test_split_window_equals_full_window(self):
        config = tiny_config(mogrifier_rounds=4)
        rng = Rng(310)
        params = model.init_model_params(rng, config)
        inputs = rng.integers(0, config.vocab_size, (3, 8))

        full, full_states = model.predict_deterministic(params, config, inputs)
        first, mid_states = model.predict_deterministic(params, config, inputs[:, :4])
        second, end_states = model.predict_deterministic(
            params, config, inputs[:, 4:], states=mid_states
        )
        stitched = np.concatenate([first, second], axis=1)
        assert np.max(np.abs(stitched - full)) <= 1e-10
        assert np.max(np.abs(full_states.c - end_states.c)) <= 1e-10
        assert np.max(np.abs(full_states.h - end_states.h)) <= 1e-10


class TestMasks:
    def test_state_mask_time_invariant_within_window(self):
        config = tiny_config(keep_state=0.5, keep_in=0.5, keep_cell=0.5)
        masks = model.sample_masks(Rng(320), config, batch=3, horizon=6)
        assert masks.rows == 3
        assert masks.m_state.shape == (config.layers, 3, config.state_size)
        assert masks.m_in.shape == (6, 3, config.state_size)
        assert masks.m_cell.shape == (config.layers, 6, 3, config.state_size)
        assert masks.m_out is None  # keep_out is 1

    def test_per_step_masks_vary_over_time(self):
        config = tiny_config(keep_in=0.5, keep_cell=0.5, keep_out=0.5)
        masks = model.sample_masks(Rng(321), config, batch=8, horizon=12)
        assert not all(np.array_equal(masks.m_in[0], masks.m_in[t]) for t in range(1, 12))
        assert not all(np.array_equal(masks.m_out[0], masks.m_out[t]) for t in range(1, 12))

    def test_keep_one_gives_exact_ones(self):
        # At keep 1 every family is all ones, so none is drawn or stored: the
        # draw is the deterministic set and leaves the rng where it was.
        config = tiny_config()
        rng = Rng(322)
        before = rng.state()
        masks = model.sample_masks(rng, config, batch=2, horizon=3, samples=2)
        assert masks == model.ones_masks(config, 4, 3) == model.MaskSet(4)
        assert rng.state() == before

    def test_inverted_scaling(self):
        config = tiny_config(keep_cell=0.25)
        masks = model.sample_masks(Rng(323), config, batch=16, horizon=8)
        values = np.unique(masks.m_cell)
        assert set(values.tolist()) <= {0.0, 4.0}

    def test_row_mask_drops_whole_vectors(self):
        config = tiny_config(keep_in=0.5, input_mask_rows=True)
        masks = model.sample_masks(Rng(324), config, batch=16, horizon=8)
        per_row = masks.m_in.min(axis=-1) == masks.m_in.max(axis=-1)
        assert np.all(per_row)
        assert 0.0 in masks.m_in and 2.0 in masks.m_in

    def test_element_mask_is_default(self):
        config = tiny_config(keep_in=0.5)
        masks = model.sample_masks(Rng(325), config, batch=16, horizon=8)
        mixed_rows = masks.m_in.min(axis=-1) != masks.m_in.max(axis=-1)
        assert mixed_rows.any()


class TestTiedEmbeddings:
    def test_tied_output_matrix_is_a_view(self):
        config = tiny_config(tie_embeddings=True)
        params = model.init_model_params(Rng(330), config)
        assert np.shares_memory(params.e_out, params.e_in)
        params.e_in[0, 0] = 123.0
        assert params.e_out[0, 0] == 123.0

    def test_untied_matrices_independent(self):
        config = tiny_config(tie_embeddings=False)
        params = model.init_model_params(Rng(331), config)
        before = params.e_out_untied.copy()
        params.e_in[:] = 0.0
        assert np.array_equal(params.e_out_untied, before)

    def test_tied_has_fewer_parameters(self):
        tied = model.init_model_params(Rng(1), tiny_config(tie_embeddings=True))
        untied = model.init_model_params(Rng(1), tiny_config(tie_embeddings=False))
        v, n = untied.e_in.shape
        assert flatten(untied).size - flatten(tied).size == v * n


class TestMultiSample:
    def test_mixture_of_two_probabilities(self):
        mixed = model.mix_sample_log_probs([np.log(0.2), np.log(0.8)])
        assert abs(mixed - np.log(0.5)) < 1e-14

    def test_single_sample_is_degenerate_mixture(self):
        values = np.log(np.array([0.3, 0.6]))
        assert np.allclose(model.mix_sample_log_probs([values]), values, atol=1e-15)

    def test_d1_equals_plain_objective_bitwise(self):
        config = tiny_config(keep_in=0.8, keep_cell=0.8, keep_state=0.8, keep_out=0.8)
        rng = Rng(340)
        params = model.init_model_params(rng, config)
        inputs = rng.integers(0, config.vocab_size, (2, 5))
        targets = rng.integers(0, config.vocab_size, (2, 5))
        batch = WindowBatch(inputs=inputs, targets=targets)

        rng_a = Rng.from_state(rng.state())
        rng_b = Rng.from_state(rng.state())
        loss, grads, states = model.loss_multisample(params, config, batch, rng_a, 1)

        masks = model.sample_masks(rng_b, config, 2, 5)
        log_probs, cache, ref_states = model.forward_window(params, config, inputs, masks)
        ref_loss, grad_lp = model.nll_from_log_probs(log_probs, targets)
        ref_grads = model.backward_window(params, config, cache, grad_lp)

        assert loss == ref_loss
        assert np.array_equal(flatten(grads), flatten(ref_grads))
        assert_same_states(states, ref_states)

    def test_mixture_never_worse_than_average_sample(self):
        config = tiny_config(keep_in=0.6, keep_cell=0.6, keep_state=0.6, keep_out=0.6)
        rng = Rng(341)
        params = model.init_model_params(rng, config)
        inputs = rng.integers(0, config.vocab_size, (2, 6))
        targets = rng.integers(0, config.vocab_size, (2, 6))
        batch = WindowBatch(inputs=inputs, targets=targets)

        mask_sets = [model.sample_masks(rng, config, 2, 6) for _ in range(4)]
        mixed_loss, _, _ = model.window_loss_with_masks(params, config, batch, mask_sets)
        sample_losses = []
        for masks in mask_sets:
            lp, _, _ = model.forward_window(params, config, inputs, masks)
            sample_losses.append(model.nll_from_log_probs(lp, targets)[0])
        assert mixed_loss <= np.mean(sample_losses) + 1e-12
        # The per-token mixture probability cannot exceed the best sample's.
        assert mixed_loss >= min(sample_losses) - np.log(4)

    def test_carried_state_comes_from_first_sample(self):
        config = tiny_config(keep_cell=0.5)
        rng = Rng(342)
        params = model.init_model_params(rng, config)
        inputs = rng.integers(0, config.vocab_size, (2, 4))
        batch = WindowBatch(inputs=inputs, targets=inputs)
        mask_sets = [model.sample_masks(rng, config, 2, 4) for _ in range(3)]
        _, _, states = model.window_loss_with_masks(params, config, batch, mask_sets)
        _, _, first = model.forward_window(params, config, inputs, mask_sets[0])
        assert_same_states(states, first)

    def test_sample_count_must_be_positive(self):
        config = tiny_config()
        params = model.empty_model_params(config)
        batch = WindowBatch(np.zeros((1, 1), np.int64), np.zeros((1, 1), np.int64))
        with pytest.raises(ValueError):
            model.loss_multisample(params, config, batch, Rng(0), 0)


class TestForwardOnlyLoss:
    """The gradient checks difference the loss of a forward-only window; it
    must be the training window's loss to the bit."""

    @pytest.mark.parametrize(
        "instance", [instance for _, instance in gradcheck.MODEL_CHECKS],
        ids=[name for name, _ in gradcheck.MODEL_CHECKS],
    )
    @pytest.mark.parametrize("fast", [False, True])
    def test_equals_the_training_loss_on_every_model_check(self, instance, fast):
        numerics.set_fast_gemm(fast)
        params, config, window, masks = gradcheck.model_instance(**instance)
        for index in (None, 0, params.vector.size // 2, params.vector.size - 1):
            if index is not None:
                params.vector[index] += 1e-5  # as the finite differences perturb it
            loss, grads, states = model.window_loss_with_masks(params, config, window, masks)
            alone, none, alone_states = model.window_loss_with_masks(
                params, config, window, masks, backward=False
            )
            assert none is None and grads is not None
            assert repr(alone) == repr(loss)
            assert_same_states(alone_states, states)


def sequential_multisample(params, config, batch, mask_sets):
    """Reference for the batched objective: one forward and one backward pass
    per dropout draw at batch B, gradient trees summed, states from draw 0."""
    bsz, horizon = batch.inputs.shape
    rows = np.arange(bsz)[:, None]
    cols = np.arange(horizon)[None, :]
    runs = [
        model.forward_window(params, config, batch.inputs, masks, batch.states)
        for masks in mask_sets
    ]
    picked = np.stack([lp[rows, cols, batch.targets] for lp, _, _ in runs])
    count = bsz * horizon
    loss = -float(np.sum(model.mix_sample_log_probs(picked))) / count
    weights = np.exp(picked - numerics.log_sum_exp(picked, axis=0)[None, :, :])
    grads = model.empty_model_params(config)
    for d, (lp, cache, _) in enumerate(runs):
        grad_lp = np.zeros_like(lp)
        grad_lp[rows, cols, batch.targets] = -weights[d] / count
        accumulate(grads, model.backward_window(params, config, cache, grad_lp))
    return loss, grads, runs[0][2]


def reference_masks(rng, config, batch, horizon):
    """One draw of the mask families whose keep is below 1, in the order in,
    cell, state, out, each drawn as a float64 array and then cast; the
    stacked sampler must reproduce it bit for bit.  A family whose keep is 1
    is not drawn and stays None."""
    n = config.state_size
    masks = model.MaskSet(batch)
    if config.keep_in < 1.0:
        width = 1 if config.input_mask_rows else n
        m_in = numerics.bernoulli_mask(rng, (horizon, batch, width), config.keep_in)
        masks.m_in = np.broadcast_to(m_in, (horizon, batch, n)).astype(config.np_dtype)
    if config.keep_cell < 1.0:
        m_cell = numerics.bernoulli_mask(rng, (config.layers, horizon, batch, n), config.keep_cell)
        masks.m_cell = m_cell.astype(config.np_dtype)
    if config.keep_state < 1.0:
        m_state = numerics.bernoulli_mask(rng, (config.layers, batch, n), config.keep_state)
        masks.m_state = m_state.astype(config.np_dtype)
    if config.keep_out < 1.0:
        m_out = numerics.bernoulli_mask(rng, (horizon, batch, n), config.keep_out)
        masks.m_out = m_out.astype(config.np_dtype)
    return masks


def materialised(masks, config, horizon):
    """`masks` with every absent (keep-1) family stored as an array of ones:
    the reference path, which multiplies by all four families."""
    n, layers, rows = config.state_size, config.layers, masks.rows
    shapes = {
        "m_in": (horizon, rows, n), "m_cell": (layers, horizon, rows, n),
        "m_state": (layers, rows, n), "m_out": (horizon, rows, n),
    }
    filled = model.MaskSet(rows)
    for name, shape in shapes.items():
        mask = getattr(masks, name)
        setattr(filled, name, np.ones(shape, config.np_dtype) if mask is None else mask)
    return filled


def ones_reference(config, batch, horizon):
    """The deterministic masks with all four families stored as ones."""
    return materialised(model.MaskSet(batch), config, horizon)


class TestBatchedSamples:
    """The D dropout draws run as one pass at batch D*B."""

    @staticmethod
    def make_case(cell, carried, seed):
        config = tiny_config(
            cell=cell, state_size=6, vocab_size=7, keep_in=0.7, keep_cell=0.8,
            keep_state=0.75, keep_out=0.85, input_mask_rows=True,
            residual_includes_embedding=True,
        )
        rng = Rng(seed)
        params = model.init_model_params(rng, config)
        bsz, horizon = 3, 5
        inputs = rng.integers(0, config.vocab_size, (bsz, horizon))
        targets = rng.integers(0, config.vocab_size, (bsz, horizon))
        states = random_states(rng, config.layers, bsz, 6) if carried else None
        return config, params, WindowBatch(inputs, targets, states), rng

    @pytest.mark.parametrize("input_mask_rows", [False, True])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_stacked_draw_equals_sequential_draws(self, input_mask_rows, dtype):
        config = tiny_config(
            keep_in=0.5, keep_cell=0.6, keep_state=0.7, keep_out=0.8,
            input_mask_rows=input_mask_rows, dtype=dtype,
        )
        rng_a, rng_b = Rng(360), Rng(360)
        stacked = model.sample_masks(rng_a, config, 3, 5, samples=4)
        reference = model.stack_masks([reference_masks(rng_b, config, 3, 5) for _ in range(4)])
        for name in ("m_in", "m_cell", "m_state", "m_out"):
            got, want = getattr(stacked, name), getattr(reference, name)
            assert got.dtype == want.dtype == config.np_dtype
            assert got.tobytes() == want.tobytes()
        assert rng_a.state() == rng_b.state()

    @pytest.mark.parametrize("cell", ["lstm", "rlstm"])
    @pytest.mark.parametrize("num_samples", [2, 4])
    @pytest.mark.parametrize("carried", [False, True])
    @pytest.mark.parametrize("fast", [False, True])
    def test_matches_sequential_loop(self, cell, num_samples, carried, fast):
        numerics.set_fast_gemm(fast)
        config, params, batch, rng = self.make_case(cell, carried, 370 + num_samples)
        draw_state = rng.state()
        masks = model.sample_masks(rng, config, 3, 5, num_samples)
        replay = Rng.from_state(draw_state)
        mask_sets = [model.sample_masks(replay, config, 3, 5) for _ in range(num_samples)]

        loss, grads, states = model.window_loss_with_masks(params, config, batch, masks)
        ref_loss, ref_grads, ref_states = sequential_multisample(params, config, batch, mask_sets)

        assert loss == ref_loss
        assert_same_states(states, ref_states)
        # The batched pass sums each weight gradient over D*B rows in one gemm,
        # so the gradients agree to rounding, not bit for bit.
        tiny = np.finfo(np.float64).tiny
        assert max_relative_error(flatten(grads), flatten(ref_grads), floor=tiny) <= 1e-10

    @pytest.mark.parametrize("num_samples", [1, 4])
    def test_one_forward_and_backward_per_call(self, monkeypatch, num_samples):
        calls = {"forward_window": 0, "backward_window": 0}
        for name in calls:
            original = getattr(model, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(model, name, counted)
        config, params, batch, rng = self.make_case("lstm", True, 380)
        model.loss_multisample(params, config, batch, rng, num_samples)
        assert calls == {"forward_window": 1, "backward_window": 1}

    def test_mask_rows_must_be_a_multiple_of_the_batch(self):
        config, params, batch, rng = self.make_case("rlstm", False, 390)
        masks = model.sample_masks(rng, config, 2, 5, samples=2)
        with pytest.raises(ValueError, match="multiple"):
            model.window_loss_with_masks(params, config, batch, masks)


class TestAbsentFamilies:
    """A family whose keep is 1 is None: it is not drawn, stored or multiplied
    in.  As x * 1 == x, every result keeps the bits of the reference path,
    which multiplies by materialised arrays of ones."""

    @staticmethod
    def make_case(cell, seed, batch=3, **keeps):
        config = tiny_config(
            cell=cell, state_size=6, vocab_size=7, mogrifier_rounds=3,
            residual_includes_embedding=True, tie_embeddings=False, **keeps,
        )
        rng = Rng(seed)
        params = model.init_model_params(rng, config)
        inputs = rng.integers(0, config.vocab_size, (batch, 5))
        targets = rng.integers(0, config.vocab_size, (batch, 5))
        states = random_states(rng, config.layers, batch, 6)
        return config, params, WindowBatch(inputs, targets, states), rng

    @staticmethod
    def assert_same_bits(got, want):
        (loss, grads, states), (ref_loss, ref_grads, ref_states) = got, want
        assert loss == ref_loss
        assert grads.vector.tobytes() == ref_grads.vector.tobytes()
        assert_same_states(states, ref_states)

    @pytest.mark.parametrize("cell", ["lstm", "rlstm"])
    @pytest.mark.parametrize("num_samples", [1, 2])
    @pytest.mark.parametrize("fast", [False, True])
    def test_keep_one_window_matches_the_ones_reference(self, cell, num_samples, fast):
        numerics.set_fast_gemm(fast)
        config, params, batch, rng = self.make_case(cell, 500 + num_samples)
        before = rng.state()
        got = model.loss_multisample(params, config, batch, rng, num_samples)
        assert rng.state() == before
        reference = ones_reference(config, num_samples * 3, 5)
        self.assert_same_bits(got, model.window_loss_with_masks(params, config, batch, reference))

    @pytest.mark.parametrize("cell", ["lstm", "rlstm"])
    @pytest.mark.parametrize("num_samples", [1, 2])
    def test_mixed_keep_window_matches_the_ones_reference(self, cell, num_samples):
        config, params, batch, rng = self.make_case(cell, 510, keep_cell=0.8, keep_out=0.7)
        masks = model.sample_masks(rng, config, 3, 5, num_samples)
        assert masks.m_in is None and masks.m_state is None
        got = model.window_loss_with_masks(params, config, batch, masks)
        reference = materialised(masks, config, 5)
        self.assert_same_bits(got, model.window_loss_with_masks(params, config, batch, reference))

    def test_absent_masks_still_need_a_multiple_of_the_batch(self):
        config, params, batch, _ = self.make_case("rlstm", 515)
        with pytest.raises(ValueError, match="masks have 2 batch rows"):
            model.window_loss_with_masks(params, config, batch, model.ones_masks(config, 2, 5))

    @pytest.mark.parametrize("cell", ["lstm", "rlstm"])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("fast", [False, True])
    def test_deterministic_scoring_matches_the_ones_reference(self, cell, batch, fast):
        numerics.set_fast_gemm(fast)
        config, params, window, _ = self.make_case(cell, 520, batch=batch)
        for temperature in (0.8, None):
            scores, states = model.predict_deterministic(
                params, config, window.inputs, temperature, window.states
            )
            ref_scores, _, ref_states = model.forward_window(
                params, config, window.inputs, ones_reference(config, batch, 5), window.states,
                temperature, backward=False,
            )
            assert scores.tobytes() == ref_scores.tobytes()
            assert_same_states(states, ref_states)

    @pytest.mark.parametrize("cell", ["lstm", "rlstm"])
    @pytest.mark.parametrize("fast", [False, True])
    def test_dynamic_evaluation_matches_the_ones_reference(self, monkeypatch, cell, fast):
        numerics.set_fast_gemm(fast)
        config, params, _, rng = self.make_case(cell, 530)
        stream = rng.integers(0, config.vocab_size, 40)
        dcfg = evaluation.DynevalConfig(segment=9, lr=0.05, decay=0.02)
        report = evaluation.evaluate_dynamic(params, config, stream, dcfg, temperature=0.9)
        calls = []

        def reference(config, batch, horizon):
            calls.append(horizon)
            return ones_reference(config, batch, horizon)

        monkeypatch.setattr(model, "ones_masks", reference)
        ref = evaluation.evaluate_dynamic(params, config, stream, dcfg, temperature=0.9)
        assert calls == [9, 9, 9, 9, 3]
        assert report == ref and not report.partial

    @pytest.mark.parametrize("keep", [1.0, 0.5])
    @pytest.mark.parametrize("num_samples", [1, 2])
    def test_keep_one_window_draws_nothing(self, monkeypatch, keep, num_samples):
        calls = {"bernoulli_mask": 0, "random": 0}
        bernoulli_mask, random = model.bernoulli_mask, Rng.random

        def counted_mask(*args, **kwargs):
            calls["bernoulli_mask"] += 1
            return bernoulli_mask(*args, **kwargs)

        def counted_random(rng, size=None):
            calls["random"] += 1
            return random(rng, size)

        monkeypatch.setattr(model, "bernoulli_mask", counted_mask)
        monkeypatch.setattr(Rng, "random", counted_random)
        keeps = dict(keep_in=keep, keep_cell=keep, keep_state=keep, keep_out=keep)
        config, params, batch, rng = self.make_case("rlstm", 540, **keeps)
        model.loss_multisample(params, config, batch, rng, num_samples, model.WindowBuffers())
        draws = 0 if keep == 1.0 else 4 * num_samples
        assert calls == {"bernoulli_mask": draws, "random": draws}

    @pytest.mark.parametrize("samples", [1, 3])
    @pytest.mark.parametrize("input_mask_rows", [False, True])
    def test_mixed_keeps_draw_only_their_dropped_families_in_order(
        self, monkeypatch, samples, input_mask_rows
    ):
        config = tiny_config(keep_in=0.6, keep_state=0.7, input_mask_rows=input_mask_rows)
        drawn = []
        bernoulli_mask = model.bernoulli_mask

        def recorded(rng, shape, keep_prob, out=None):
            drawn.append((keep_prob, shape))
            return bernoulli_mask(rng, shape, keep_prob, out=out)

        monkeypatch.setattr(model, "bernoulli_mask", recorded)
        rng_a, rng_b = Rng(550), Rng(550)
        masks = model.sample_masks(rng_a, config, 2, 5, samples)
        in_width = 1 if input_mask_rows else 4
        assert drawn == [(0.6, (5, 2, in_width)), (0.7, (2, 2, 4))] * samples
        assert masks.m_cell is None and masks.m_out is None and masks.rows == 2 * samples
        reference = model.stack_masks([reference_masks(rng_b, config, 2, 5) for _ in range(samples)])
        assert reference.m_cell is None and reference.m_out is None
        assert reference.rows == masks.rows
        for name in ("m_in", "m_state"):
            assert getattr(masks, name).tobytes() == getattr(reference, name).tobytes()
        assert rng_a.state() == rng_b.state()


class TestBackwardWindow:
    def test_zero_upstream_gives_zero_grads(self):
        config = tiny_config()
        rng = Rng(350)
        params = model.init_model_params(rng, config)
        inputs = rng.integers(0, config.vocab_size, (2, 3))
        masks = model.ones_masks(config, 2, 3)
        log_probs, cache, _ = model.forward_window(params, config, inputs, masks)
        grads = model.backward_window(params, config, cache, np.zeros_like(log_probs))
        assert np.all(flatten(grads) == 0.0)

    def test_nll_gradient_structure(self):
        log_probs = np.log(np.full((1, 2, 4), 0.25))
        targets = np.array([[1, 3]])
        loss, grad = model.nll_from_log_probs(log_probs, targets)
        assert abs(loss - np.log(4)) < 1e-14
        expected = np.zeros((1, 2, 4))
        expected[0, 0, 1] = -0.5
        expected[0, 1, 3] = -0.5
        assert np.array_equal(grad, expected)


class TestPredictDeterministic:
    def test_repeat_calls_bitwise_identical(self):
        config = tiny_config(keep_in=0.5, keep_cell=0.5)
        rng = Rng(360)
        params = model.init_model_params(rng, config)
        inputs = rng.integers(0, config.vocab_size, (2, 4))
        a, _ = model.predict_deterministic(params, config, inputs)
        b, _ = model.predict_deterministic(params, config, inputs)
        assert np.array_equal(a, b)

    def test_temperature_flattens_distribution(self):
        config = tiny_config()
        rng = Rng(361)
        params = model.init_model_params(rng, config)
        inputs = rng.integers(0, config.vocab_size, (1, 3))
        cold, _ = model.predict_deterministic(params, config, inputs, temperature=0.5)
        warm, _ = model.predict_deterministic(params, config, inputs, temperature=4.0)
        ent_cold = -np.sum(np.exp(cold) * cold, axis=-1)
        ent_warm = -np.sum(np.exp(warm) * warm, axis=-1)
        assert np.all(ent_warm > ent_cold)

    def test_temperature_one_is_identity(self):
        config = tiny_config()
        rng = Rng(362)
        params = model.init_model_params(rng, config)
        inputs = rng.integers(0, config.vocab_size, (1, 3))
        masks = model.ones_masks(config, 1, 3)
        direct, _, _ = model.forward_window(params, config, inputs, masks, temperature=1.0)
        via_predict, _ = model.predict_deterministic(params, config, inputs)
        assert np.array_equal(direct, via_predict)


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(layers=0)
        with pytest.raises(ValueError):
            tiny_config(cell="gru")
        with pytest.raises(ValueError):
            tiny_config(keep_in=0.0)
        with pytest.raises(ValueError):
            tiny_config(keep_out=1.5)
        with pytest.raises(ValueError):
            tiny_config(vocab_size=1)
        with pytest.raises(ValueError):
            tiny_config(dropout_samples=0)
        with pytest.raises(ValueError):
            tiny_config(dtype="float16")

    def test_empty_params_match_init_structure(self):
        config = tiny_config(tie_embeddings=False, mogrifier_rank=2)
        empty = model.empty_model_params(config)
        filled = model.init_model_params(Rng(5), config)
        assert flatten(empty).size == flatten(filled).size
        assert np.all(flatten(empty) == 0.0)
        assert [(path, arr.shape) for path, arr in ptree.named_arrays(empty)] == [
            (path, arr.shape) for path, arr in ptree.named_arrays(filled)
        ]

    def test_shape_template_is_shared_but_no_array_is(self):
        # The shape template is built once per shape; every call still
        # validates the config and casts the vector, and no two calls' params
        # share an array.
        config = tiny_config(tie_embeddings=False, mogrifier_rank=2)
        first = model.empty_model_params(config)
        before = model._layer_template.cache_info()
        drawn = Rng(7).uniform(-1, 1, first.vector.size)
        second = model.empty_model_params(config, drawn)
        assert model._layer_template.cache_info().hits == before.hits + 1
        assert second.vector is drawn
        for (path, a), (_, b) in zip(ptree.named_arrays(first), ptree.named_arrays(second)):
            assert a.shape == b.shape and not np.shares_memory(a, b), path
        single = model.empty_model_params(replace(config, dtype="float32"), drawn)
        assert single.vector.dtype == np.float32
        assert single.vector.tobytes() == drawn.astype(np.float32).tobytes()
        assert model.empty_model_params(config).vector.dtype == np.float64
        config.layers = 0  # a ModelConfig is mutable: it is checked on every call
        with pytest.raises(ValueError, match="layers"):
            model.empty_model_params(config)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_arrays_view_one_vector(self, dtype):
        config = tiny_config(tie_embeddings=False, mogrifier_rank=2, dtype=dtype)
        params = model.init_model_params(Rng(5), config)
        vector = params.vector
        assert vector.dtype == np.dtype(dtype) and vector.flags.c_contiguous
        for _, arr in ptree.named_arrays(params):
            assert arr.dtype == vector.dtype and np.shares_memory(arr, vector)
        assert sum(arr.size for _, arr in ptree.named_arrays(params)) == vector.size
        batch = WindowBatch(inputs=np.array([[0, 1, 2]]), targets=np.array([[1, 2, 3]]))
        _, grads, _ = model.loss_multisample(params, config, batch, Rng(6), 1)
        assert grads.vector.dtype == vector.dtype and grads.vector.size == vector.size
        assert all(np.shares_memory(arr, grads.vector) for _, arr in ptree.named_arrays(grads))

    @pytest.mark.parametrize("tied", [True, False])
    @pytest.mark.parametrize("rounds, rank", [(0, 0), (3, 0), (3, 3)])
    @pytest.mark.parametrize("cell", ["lstm", "rlstm"])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_layout_matches_a_per_layer_init(self, layers, cell, rounds, rank, tied):
        # The vector keeps the layout of per-layer parameters, byte for byte:
        # e_in, b_out, each layer's cell then mogrifier, layer after layer,
        # drawn as separate arrays in that order, then e_out_untied; the
        # stacked arrays' [l] views layer l's block.
        config = tiny_config(
            layers=layers, cell=cell, mogrifier_rounds=rounds, mogrifier_rank=rank,
            tie_embeddings=tied,
        )
        rng = Rng(12)
        params = model.init_model_params(rng, config)
        ref = Rng(12)
        n, v, scale = config.state_size, config.vocab_size, 1 / np.sqrt(config.state_size)
        e_in = ref.uniform(-scale, scale, (v, n))
        e_out = [] if tied else [ref.uniform(-scale, scale, (n, v)).ravel()]
        layer_refs = [
            model.LayerParams(
                cells.init_cell_params(ref, n, n, cell, config.t_max),
                mogrifier.init_mogrifier_params(ref, n, n, rounds, rank),
            )
            for _ in range(layers)
        ]
        assert ref.state() == rng.state()
        layout = [e_in.ravel(), np.zeros(v), *map(flatten, layer_refs), *e_out]
        assert params.vector.tobytes() == np.concatenate(layout).tobytes()
        stacked = list(ptree.named_arrays(params.layers))
        for l, layer_ref in enumerate(layer_refs):
            for (path, arr), (ref_path, ref_arr) in zip(
                stacked, ptree.named_arrays(layer_ref), strict=True
            ):
                assert path == ref_path and arr.shape == (layers, *ref_arr.shape)
                assert np.shares_memory(arr, params.vector)
                assert arr[l].tobytes() == ref_arr.tobytes()


# --- Reference: the per-gate, per-step model ---------------------------------
# One gemm per gate and input, the output layer at every step, and every
# weight gradient formed at every step and summed into a zero tree.  The
# module under test fuses the gates and forms each weight gradient once per
# window; the two must agree to rounding.


def ref_mogrify(mp, h, x):
    gemm = numerics.gemm
    xs, hs, gates = [x], [h], []
    for index in range(1, mp.rounds + 1):
        w = mp.x_gates[index // 2] if index % 2 == 1 else mp.h_gates[index // 2 - 1]
        src = hs[-1] if index % 2 == 1 else xs[-1]
        pre = gemm(gemm(src, w.v.T), w.u.T) if hasattr(w, "u") else gemm(src, w.T)
        gate = 2.0 * numerics.sigmoid(pre)
        if index % 2 == 1:
            xs.append(gate * xs[-1])
        else:
            hs.append(gate * hs[-1])
        gates.append(gate)
    return xs, hs, gates


def ref_gate_backward(w, w_grad, dpre, applied_to):
    gemm = numerics.gemm
    if hasattr(w, "u"):
        mid_grad = gemm(dpre, w.u)
        w_grad.u += gemm(dpre.T, gemm(applied_to, w.v.T))
        w_grad.v += gemm(mid_grad.T, applied_to)
        return gemm(mid_grad, w.v)
    w_grad += gemm(dpre.T, applied_to)
    return gemm(dpre, w)


def ref_mogrify_backward(mp, mg, xs, hs, gates, dh, dx):
    x_top, h_top = len(xs) - 1, len(hs) - 1
    for index in range(mp.rounds, 0, -1):
        gate = gates[index - 1]
        if index % 2 == 1:
            dgate = dx * xs[x_top - 1]
            dx = dx * gate
            dpre = dgate * gate * (1.0 - 0.5 * gate)
            k = index // 2
            dh = dh + ref_gate_backward(mp.x_gates[k], mg.x_gates[k], dpre, hs[h_top])
            x_top -= 1
        else:
            dgate = dh * hs[h_top - 1]
            dh = dh * gate
            dpre = dgate * gate * (1.0 - 0.5 * gate)
            k = index // 2 - 1
            dx = dx + ref_gate_backward(mp.h_gates[k], mg.h_gates[k], dpre, xs[x_top])
            h_top -= 1
    return dh, dx


def ref_cell_forward(config, cp, c_prev, h_prev, x, state_mask):
    gemm, sigmoid = numerics.gemm, numerics.sigmoid
    v = cells.gate_views(cp)
    i = sigmoid(gemm(x, v["w_ix"].T) + gemm(h_prev, v["w_ih"].T) + v["b_i"])
    j = np.tanh(gemm(x, v["w_jx"].T) + gemm(h_prev, v["w_jh"].T) + v["b_j"])
    u = cm = None
    if config.cell == "rlstm":
        u = i * j
        f = sigmoid(gemm(u, v["w_fu"].T) + gemm(h_prev, v["w_fh"].T) + v["b_f"])
        g = np.minimum(i, 1.0 - f)
        c = f * c_prev + g * j
        cm = c * state_mask
        o = sigmoid(gemm(cm, v["w_oc"].T) + v["b_o"])
    else:
        f = sigmoid(gemm(x, v["w_fx"].T) + gemm(h_prev, v["w_fh"].T) + v["b_f"])
        o = sigmoid(gemm(x, v["w_ox"].T) + gemm(h_prev, v["w_oh"].T) + v["b_o"])
        g = np.minimum(i, 1.0 - f) if config.cap_input_gate else i
        c = f * c_prev + g * j
    tanh_c = np.tanh(c)
    step = dict(x=x, c_prev=c_prev, h_prev=h_prev, i=i, j=j, f=f, o=o, g=g, tanh_c=tanh_c,
                u=u, cm=cm, state_mask=state_mask)
    return c, o * tanh_c, step


def ref_cell_backward(config, cp, cg, s, grad_c, grad_h):
    gemm = numerics.gemm
    v, gv = cells.gate_views(cp), cells.gate_views(cg)
    rewired = config.cell == "rlstm"
    do = grad_h * s["tanh_c"]
    dc = grad_c + grad_h * s["o"] * (1.0 - s["tanh_c"] ** 2)
    dpre = {"o": do * s["o"] * (1.0 - s["o"])}
    if rewired:
        dc = dc + gemm(dpre["o"], v["w_oc"]) * s["state_mask"]
    df = dc * s["c_prev"]
    dg = dc * s["j"]
    dj = dc * s["g"]
    dc_prev = dc * s["f"]
    if rewired or config.cap_input_gate:
        take_i = s["i"] <= 1.0 - s["f"]
        di = dg * take_i
        df = df - dg * (~take_i)
    else:
        di = dg
    dpre["f"] = df * s["f"] * (1.0 - s["f"])
    if rewired:
        du = gemm(dpre["f"], v["w_fu"])
        di = di + du * s["j"]
        dj = dj + du * s["i"]
    dpre["i"] = di * s["i"] * (1.0 - s["i"])
    dpre["j"] = dj * (1.0 - s["j"] ** 2)
    for g, d in dpre.items():
        gv[f"b_{g}"] += d.sum(axis=0)
    inputs = {"x": s["x"], "h": s["h_prev"], "u": s["u"], "c": s["cm"]}
    dx = 0.0
    dh = 0.0
    for name, block in v.items():
        if not name.startswith("w_"):
            continue
        g, src = name[2], name[3]
        gv[name] += gemm(dpre[g].T, inputs[src])
        if src == "x":
            dx = dx + gemm(dpre[g], block)
        elif src == "h":
            dh = dh + gemm(dpre[g], block)
    return dc_prev, dh, dx


def ref_window(params, config, inputs, masks, states, grad_of_log_probs):
    """(log_probs, grads) of the per-gate, per-step model; the log-prob
    gradient comes from grad_of_log_probs(log_probs)."""
    gemm = numerics.gemm
    batch, horizon = inputs.shape
    n = config.state_size
    c, h = list(states.c), list(states.h)
    logits = np.empty((batch, horizon, config.vocab_size))
    steps = []
    for t in range(horizon):
        x0 = params.e_in[inputs[:, t]] * masks.m_in[t]
        xhats, step = [], []
        for l in range(config.layers):
            layer = layer_of(params.layers, l)
            x = x0 if l == 0 else sum(xhats[1:], xhats[0].copy())
            if l > 0 and config.residual_includes_embedding:
                x = x + x0
            xs, hs, gates = ref_mogrify(layer.mog, h[l] * masks.m_state[l], x)
            c[l], h[l], cell = ref_cell_forward(
                config, layer.cell, c[l], hs[-1], xs[-1], masks.m_state[l]
            )
            xhats.append(h[l] * masks.m_cell[l, t])
            step.append((xs, hs, gates, cell))
        total = sum(xhats[1:], xhats[0].copy())
        logits[:, t, :] = gemm(total * masks.m_out[t], params.e_out) + params.b_out
        steps.append((total, step))
    log_probs = numerics.log_softmax(logits)
    grad_lp = grad_of_log_probs(log_probs)

    grads = model.empty_model_params(config)
    e_out_grad = grads.e_in.T if params.tied else grads.e_out_untied
    dlogits = grad_lp - np.exp(log_probs) * np.sum(grad_lp, axis=-1, keepdims=True)
    grad_c = [np.zeros((batch, n)) for _ in range(config.layers)]
    grad_h = [np.zeros((batch, n)) for _ in range(config.layers)]
    for t in range(horizon - 1, -1, -1):
        total, step = steps[t]
        dlog_t = np.ascontiguousarray(dlogits[:, t, :])
        e_out_grad += gemm((total * masks.m_out[t]).T, dlog_t)
        grads.b_out += dlog_t.sum(axis=0)
        dsum = gemm(dlog_t, params.e_out.T) * masks.m_out[t]
        dx_residual = np.zeros((batch, n))
        dx0 = np.zeros((batch, n))
        for l in range(config.layers - 1, -1, -1):
            layer, layer_grads = layer_of(params.layers, l), layer_of(grads.layers, l)
            xs, hs, gates, cell = step[l]
            dh = (dsum + dx_residual) * masks.m_cell[l, t] + grad_h[l] * masks.m_state[l]
            grad_c[l], dmog_h, dmog_x = ref_cell_backward(
                config, layer.cell, layer_grads.cell, cell, grad_c[l], dh
            )
            grad_h[l], dx_in = ref_mogrify_backward(
                layer.mog, layer_grads.mog, xs, hs, gates, dmog_h, dmog_x
            )
            if l == 0:
                dx0 += dx_in
            else:
                dx_residual += dx_in
                if config.residual_includes_embedding:
                    dx0 += dx_in
        np.add.at(grads.e_in, inputs[:, t], dx0 * masks.m_in[t])
    return log_probs, grads


class TestAgainstPerGateReference:
    @staticmethod
    def make_case(cell, batch, seed, **overrides):
        fields = dict(
            cell=cell, state_size=6, vocab_size=7, mogrifier_rounds=3, keep_in=0.7,
            keep_cell=0.8, keep_state=0.75, keep_out=0.85, residual_includes_embedding=True,
            tie_embeddings=False,
        )
        fields.update(overrides)
        config = tiny_config(**fields)
        rng = Rng(seed)
        params = model.init_model_params(rng, config)
        inputs = rng.integers(0, config.vocab_size, (batch, 5))
        targets = rng.integers(0, config.vocab_size, (batch, 5))
        states = random_states(rng, config.layers, batch, 6)
        masks = model.sample_masks(rng, config, batch, 5)
        return config, params, inputs, targets, states, masks

    @pytest.mark.parametrize("cell", ["lstm", "rlstm"])
    @pytest.mark.parametrize("fast", [False, True])
    @pytest.mark.parametrize(
        "batch, overrides",
        [(3, {}), (1, {"tie_embeddings": True}), (2, {"mogrifier_rank": 2}),
         (2, {"cap_input_gate": False, "input_mask_rows": True})],
    )
    def test_log_probs_and_gradients(self, cell, fast, batch, overrides):
        numerics.set_fast_gemm(fast)
        config, params, inputs, targets, states, masks = self.make_case(
            cell, batch, 400 + batch, **overrides
        )
        log_probs, cache, _ = model.forward_window(params, config, inputs, masks, states)
        _, grad_lp = model.nll_from_log_probs(log_probs, targets)
        grads = model.backward_window(params, config, cache, grad_lp)

        ref_log_probs, ref_grads = ref_window(
            params, config, inputs, masks, states,
            lambda lp: model.nll_from_log_probs(lp, targets)[1],
        )
        tiny = np.finfo(np.float64).tiny
        assert max_relative_error(log_probs, ref_log_probs, floor=tiny) <= 1e-12
        assert max_relative_error(flatten(grads), flatten(ref_grads), floor=tiny) <= 1e-10

    def test_backward_window_makes_no_accumulate_call(self, monkeypatch):
        import rnnlab

        calls = []
        original = ptree.accumulate

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (ptree, rnnlab, cells, mogrifier, model):
            if getattr(module, "accumulate", None) is original:
                monkeypatch.setattr(module, "accumulate", counted)
        config, params, inputs, targets, states, masks = self.make_case("rlstm", 3, 410)
        log_probs, cache, _ = model.forward_window(params, config, inputs, masks, states)
        _, grad_lp = model.nll_from_log_probs(log_probs, targets)
        model.backward_window(params, config, cache, grad_lp)
        assert calls == []

    @pytest.mark.parametrize("fast", [False, True])
    @pytest.mark.parametrize("cut", [13, 30])
    def test_batch_one_logits_do_not_depend_on_the_window(self, fast, cut):
        # A token scored at batch 1 gets the same bits whatever window it
        # falls in, which keeps dyneval with lr = 0 equal to static scoring.
        # (With BLAS and one product over all rows, this model gives other
        # bits in windows of 13 + 27 and of 30 + 10 tokens than in one of 40.)
        numerics.set_fast_gemm(fast)
        config = tiny_config(layers=1, state_size=32, vocab_size=40, mogrifier_rounds=0)
        rng = Rng(420)
        params = model.init_model_params(rng, config)
        stream = rng.integers(0, config.vocab_size, (1, 40))
        whole, _ = model.predict_deterministic(params, config, stream)
        first, states = model.predict_deterministic(params, config, stream[:, :cut])
        rest, _ = model.predict_deterministic(params, config, stream[:, cut:], states=states)
        assert np.concatenate([first, rest], axis=1).tobytes() == whole.tobytes()


# Every mask family, the embedding in the residual sums and factored gates.
PLAN_FAMILIES = dict(
    keep_in=0.7, keep_cell=0.6, keep_state=0.8, keep_out=0.7, residual_includes_embedding=True,
    mogrifier_rank=2,
)


def spend(params, config, log_probs, cache):
    """Run the backward pass of a window (targets: its inputs), which spends
    its cache and hands the plan back to the cache's lender."""
    _, grad_lp = model.nll_from_log_probs(log_probs, cache.inputs)
    return model.backward_window(params, config, cache, grad_lp)


class TestWindowBuffers:
    def test_reused_buffers_give_the_same_bits(self):
        config = tiny_config(keep_in=0.8, keep_cell=0.7, keep_state=0.9, keep_out=0.8)
        rng = Rng(430)
        params = model.init_model_params(rng, config)
        inputs = rng.integers(0, config.vocab_size, (3, 6))
        batch = WindowBatch(inputs, rng.integers(0, config.vocab_size, (3, 6)))
        masks = model.sample_masks(rng, config, 3, 6)
        loss, grads, states = model.window_loss_with_masks(params, config, batch, masks)
        buffers = model.WindowBuffers()
        for _ in range(3):
            again, again_grads, again_states = model.window_loss_with_masks(
                params, config, batch, masks, buffers
            )
            assert again == loss
            assert flatten(again_grads).tobytes() == flatten(grads).tobytes()
            assert_same_states(again_states, states)

    def test_spent_window_lends_its_block_and_is_cleared(self):
        config = tiny_config()
        params = model.init_model_params(Rng(431), config)
        masks = model.ones_masks(config, 3, 4)
        buffers = model.WindowBuffers()
        log_probs, first, _ = model.forward_window(
            params, config, np.zeros((3, 4), np.int64), masks, buffers=buffers
        )
        block = first.plan.block
        assert np.shares_memory(first.plan.ticks[0].cell_cache.gates, block)
        spend(params, config, log_probs, first)
        assert first.plan is None and first.lender is None and first.cell_caches is None
        # A smaller window is cut from the block the first one left behind.
        small = model.ones_masks(config, 2, 3)
        log_probs, second, _ = model.forward_window(
            params, config, np.zeros((2, 3), np.int64), small, buffers=buffers
        )
        assert second.plan.block is block
        assert np.shares_memory(second.plan.cell_window.gates, block)
        assert np.shares_memory(second.plan.outputs, block)
        spend(params, config, log_probs, second)
        # A larger window frees the block and takes a larger one.
        wide = model.ones_masks(config, 5, 4)
        _, third, _ = model.forward_window(params, config, np.zeros((5, 4), np.int64), wide,
                                           buffers=buffers)
        assert third.plan.block.size > block.size

    def test_a_spent_cache_refuses_a_second_backward(self):
        # The first backward pass overwrote the gate buffers and handed the
        # plan back; a second would read whatever the next window left there.
        config = tiny_config(keep_state=0.8)
        rng = Rng(437)
        params = model.init_model_params(rng, config)
        inputs = rng.integers(0, config.vocab_size, (2, 8))
        masks = model.sample_masks(rng, config, 2, 8)
        for buffers in (None, model.WindowBuffers()):
            log_probs, cache, _ = model.forward_window(params, config, inputs, masks,
                                                       buffers=buffers)
            spend(params, config, log_probs, cache)
            with pytest.raises(ValueError, match="spent by an earlier backward pass"):
                spend(params, config, log_probs, cache)

    @pytest.mark.parametrize("fast", [False, True])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("cell", ["lstm", "rlstm"])
    @pytest.mark.parametrize(
        "overrides",
        [{}, PLAN_FAMILIES, dict(keep_cell=0.7, keep_out=0.8, mogrifier_rank=2),
         dict(keep_in=0.6, keep_state=0.7, residual_includes_embedding=True)],
        ids=["none", "every", "cell-out-rank2", "in-state-embedding"],
    )
    def test_scoring_pass_gives_the_same_bits(self, fast, batch, cell, overrides):
        # Without a backward pass the steps share one step's buffers; a window
        # on a plan that an earlier window of its shape left keeps the bits.
        numerics.set_fast_gemm(fast)
        config = tiny_config(cell=cell, mogrifier_rounds=3, **overrides)
        rng = Rng(432)
        params = model.init_model_params(rng, config)
        inputs = rng.integers(0, config.vocab_size, (batch, 7))
        states = random_states(rng, config.layers, batch, 4)
        masks = model.sample_masks(rng, config, batch, 7)
        kept, cache, kept_states = model.forward_window(params, config, inputs, masks, states)
        buffers = model.WindowBuffers()
        for backward in (False, False, True, True):
            got, got_cache, got_states = model.forward_window(
                params, config, inputs, masks, states, buffers=buffers, backward=backward
            )
            assert (got_cache is None) == (not backward) and cache is not None
            assert got.tobytes() == kept.tobytes()
            assert_same_states(got_states, kept_states)
            if backward:
                spend(params, config, got, got_cache)


class TestPlans:
    """The ticks run on a plan of the window's shape, which owns its block:
    WindowBuffers lends the plan back once the window is done with it, and
    the next window of that shape runs on it as it is, with its own weights,
    masks and states."""

    @staticmethod
    def count_views(monkeypatch):
        views = []
        for cls in (cells.CellCache, mogrifier.MogrifyCache):
            original = cls.at

            def counted(self, t, _original=original):
                views.append(t)
                return _original(self, t)

            monkeypatch.setattr(cls, "at", counted)
        return views

    @pytest.mark.parametrize("cell", ["lstm", "rlstm"])
    def test_windows_of_one_shape_reuse_one_plan(self, monkeypatch, cell):
        config = tiny_config(cell=cell, layers=3, **PLAN_FAMILIES)
        rng = Rng(433)
        params = model.init_model_params(rng, config)
        windows = []  # (inputs, masks, states, targets): new masks and weights each time
        for _ in range(3):
            inputs, targets = rng.integers(0, config.vocab_size, (2, 2, 6))
            windows.append((inputs, targets, model.sample_masks(rng, config, 2, 6),
                            random_states(rng, config.layers, 2, 4)))
        steps = [rng.uniform(-0.2, 0.2, params.vector.size) for _ in windows]
        start, want = params.vector.copy(), []  # each window on a plan of its own
        for (inputs, targets, masks, states), step in zip(windows, steps):
            log_probs, cache, final = model.forward_window(params, config, inputs, masks, states)
            grads = model.backward_window(
                params, config, cache, model.nll_from_log_probs(log_probs, targets)[1]
            )
            want.append((log_probs.tobytes(), final, grads.vector.tobytes()))
            params.vector += step
        params.vector[...] = start
        views, buffers, plans = self.count_views(monkeypatch), model.WindowBuffers(), []
        for (inputs, targets, masks, states), step, (log_probs, final, grads) in zip(
            windows, steps, want
        ):
            got, cache, got_final = model.forward_window(
                params, config, inputs, masks, states, buffers=buffers
            )
            plans.append(cache.plan)
            got_grads = model.backward_window(
                params, config, cache, model.nll_from_log_probs(got, targets)[1]
            )
            assert got.tobytes() == log_probs and got_grads.vector.tobytes() == grads
            assert_same_states(got_final, final)
            if len(plans) == 1:
                assert len(views) == 2 * (6 + 3 - 1)  # a cell and a mogrifier view per tick
                views.clear()
            params.vector += step
        assert views == [] and plans[0] is plans[1] is plans[2]

    def test_a_new_shape_or_a_larger_block_rebuilds_the_plan(self):
        config = tiny_config()
        params = model.init_model_params(Rng(434), config)
        buffers = model.WindowBuffers()

        def window(batch, horizon):
            masks = model.ones_masks(config, batch, horizon)
            inputs = np.zeros((batch, horizon), np.int64)
            log_probs, cache, _ = model.forward_window(
                params, config, inputs, masks, buffers=buffers
            )
            plan = cache.plan
            spend(params, config, log_probs, cache)
            return plan, plan.block

        plan, block = window(3, 6)
        assert window(3, 6) == (plan, block)
        shorter, same_block = window(3, 4)  # a new horizon: a new plan in the same block
        assert shorter is not plan and same_block is block
        assert window(3, 4) == (shorter, block)
        wider, larger = window(5, 6)  # a new batch that needs more room
        assert wider is not plan and larger.size > block.size
        back, _ = window(3, 6)
        assert back is not plan and back is not wider  # the block keeps one plan

    @staticmethod
    def count_plans(monkeypatch):
        built = []  # (batch, horizon, backward) of each plan built

        class Counted(model._Plan):
            def __init__(self, key, *args):
                built.append(key[-5:-2])
                super().__init__(key, *args)

        monkeypatch.setattr(model, "_Plan", Counted)
        return built

    def test_scoring_windows_of_one_shape_share_a_plan(self, monkeypatch):
        built = self.count_plans(monkeypatch)
        config = tiny_config()
        rng = Rng(436)
        params = model.init_model_params(rng, config)
        stream = rng.integers(0, config.vocab_size, 3 * 8 + 4)  # windows of 8, 8, 8 and 3
        evaluation.evaluate_static(params, config, stream, 1.0, 1, 8)
        assert built == [(1, 8, False), (1, 3, False)]

    def test_dyneval_scoring_windows_share_a_plan(self, monkeypatch):
        # With lr = 0 and no decay no segment adapts: every window scores only.
        built = self.count_plans(monkeypatch)
        config = tiny_config()
        rng = Rng(438)
        params = model.init_model_params(rng, config)
        stream = rng.integers(0, config.vocab_size, 3 * 8 + 4)  # windows of 8, 8, 8 and 3
        dcfg = evaluation.DynevalConfig(segment=8, lr=0.0, decay=0.0)
        evaluation.evaluate_dynamic(params, config, stream, dcfg, 1.0)
        assert built == [(1, 8, False), (1, 3, False)]

    def test_a_model_gradient_check_builds_one_scoring_plan(self, monkeypatch):
        # Its 2 * P scoring passes, one per perturbed entry, share one plan;
        # the training pass builds the other.
        built = self.count_plans(monkeypatch)
        gradcheck._check_model()
        assert built == [(1, 4, False), (1, 4, True)]

    def test_a_spent_cache_keeps_nothing_of_the_plan(self):
        config = tiny_config(keep_state=0.8)
        rng = Rng(435)
        params = model.init_model_params(rng, config)
        inputs = rng.integers(0, config.vocab_size, (3, 5))
        masks = model.sample_masks(rng, config, 3, 5)
        buffers = model.WindowBuffers()
        log_probs, cache, _ = model.forward_window(params, config, inputs, masks, buffers=buffers)
        plan = cache.plan
        spend(params, config, log_probs, cache)
        owned = [plan.block, plan.h, plan.m_state,
                 *(a for _, a in ptree.named_arrays(plan.weights))]
        for field in dataclasses.fields(cache):
            value = getattr(cache, field.name)
            assert value is None or not any(
                np.shares_memory(a, b) for _, a in ptree.named_arrays(value) for b in owned
            ), field.name
        # The next window of the shape runs on the plan; the spent cache reads none of it.
        _, again, _ = model.forward_window(params, config, inputs, masks, buffers=buffers)
        assert again.plan is plan and cache.plan is None and cache.lender is None


class TestForwardWeights:
    """A window's steps multiply by contiguous copies of the weights, made
    when the window starts: a change made to params.vector in place (the
    optimizer, dynamic evaluation, gradcheck) shows in the next window."""

    @pytest.mark.parametrize("fast", [False, True])
    @pytest.mark.parametrize("backward", [False, True])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("cell", ["lstm", "rlstm"])
    def test_each_window_reads_the_weights_as_they_are(self, fast, backward, batch, cell):
        numerics.set_fast_gemm(fast)
        config = tiny_config(
            cell=cell, state_size=8, vocab_size=7, mogrifier_rounds=3, tie_embeddings=False
        )
        rng = Rng(680)
        params = model.init_model_params(rng, config)
        inputs = rng.integers(0, config.vocab_size, (batch, 5))
        targets = rng.integers(0, config.vocab_size, (batch, 5))
        masks = model.ones_masks(config, batch, 5)
        for _ in range(3):
            fresh = model.empty_model_params(config, params.vector.copy())
            (got, cache, final), (want, fresh_cache, fresh_final) = (
                model.forward_window(p, config, inputs, masks, backward=backward)
                for p in (params, fresh)
            )
            assert got.tobytes() == want.tobytes()
            assert_same_states(final, fresh_final)
            if backward:
                _, grad_lp = model.nll_from_log_probs(want, targets)
                grads = model.backward_window(params, config, cache, grad_lp)
                fresh_grads = model.backward_window(fresh, config, fresh_cache, grad_lp)
                assert grads.vector.tobytes() == fresh_grads.vector.tobytes()
            params.vector += rng.uniform(-0.3, 0.3, params.vector.size)  # in place

    @pytest.mark.parametrize("backward", [False, True])
    @pytest.mark.parametrize("cell, rank", [("lstm", 2), ("rlstm", 0)])
    def test_steps_get_contiguous_copies_that_partial_ticks_slice(
        self, monkeypatch, cell, rank, backward
    ):
        # The cell step gets the weights as its first argument; the mogrifier
        # step gets them bound into its rounds, with each factor's product.
        seen = {"mogrify_forward": [], f"{cell}_forward": []}
        for module, name in ((mogrifier, "mogrify_forward"), (cells, f"{cell}_forward")):
            original = getattr(module, name)

            def recorded(first, *args, _name=name, _original=original, **kwargs):
                weights = first if _name != "mogrify_forward" else [
                    [w for w, _ in products] for _, products, *_ in first
                ]
                seen[_name].append(weights)
                return _original(first, *args, **kwargs)

            monkeypatch.setattr(module, name, recorded)
        config = tiny_config(cell=cell, layers=3, mogrifier_rounds=3, mogrifier_rank=rank)
        params = model.init_model_params(Rng(681), config)
        inputs = Rng(682).integers(0, config.vocab_size, (2, 4))
        model.forward_window(params, config, inputs, model.ones_masks(config, 2, 4),
                             backward=backward)
        for ticks in seen.values():
            # 4 + 3 - 1 ticks: 0 and 5 run one layer, 1 and 4 two, 2 and 3 all three
            layers = [{len(a) for _, a in ptree.named_arrays(weights)} for weights in ticks]
            assert layers == [{1}, {2}, {3}, {3}, {2}, {1}]
            for weights in ticks:
                for _, a in ptree.named_arrays(weights):
                    assert a.flags.c_contiguous and not np.shares_memory(a, params.vector)
            whole = list(ptree.named_arrays(ticks[2]))
            for partial in (ticks[0], ticks[1], ticks[4], ticks[5]):
                for (_, a), (_, b) in zip(ptree.named_arrays(partial), whole, strict=True):
                    assert np.shares_memory(a, b)  # a slice of the window's copy, not a copy


class TestScoringCaches:
    """A scoring pass stores no gate values, which only a backward pass reads."""

    @pytest.mark.parametrize("cell", ["lstm", "rlstm"])
    def test_scoring_caches_hold_no_gate_buffers(self, monkeypatch, cell):
        seen = []
        # The gates a step stores into: the cell cache's (its second
        # argument), and the mogrifier's, None or each round's.
        for module, name in ((mogrifier, "mogrify_forward"), (cells, f"{cell}_forward")):
            original = getattr(module, name)

            def recorded(first, *args, _original=original, **kwargs):
                if args:
                    seen.append(args[0].gates)
                else:
                    stored = [into for *_, into in first]
                    seen.append(None if all(into is None for into in stored) else stored)
                return _original(first, *args, **kwargs)

            monkeypatch.setattr(module, name, recorded)
        config = tiny_config(cell=cell, layers=2, mogrifier_rounds=3)
        params = model.init_model_params(Rng(455), config)
        inputs = Rng(456).integers(0, config.vocab_size, (1, 6))
        masks = model.ones_masks(config, 1, 6)
        model.forward_window(params, config, inputs, masks, backward=False)
        assert len(seen) == 2 * (6 + 1) and all(gates is None for gates in seen)
        seen.clear()
        _, cache, _ = model.forward_window(params, config, inputs, masks)
        assert len(seen) == 2 * (6 + 1) and all(gates is not None for gates in seen)
        assert cache.plan.cell_window.gates is not None
        assert cache.plan.mog_window.gates is not None

    @pytest.mark.parametrize("fast", [False, True])
    @pytest.mark.parametrize("cell", ["lstm", "rlstm"])
    @pytest.mark.parametrize("decay", [0.0, 0.02])  # 0.02: windows run for a backward pass
    def test_dyneval_with_lr_zero_equals_static_scoring(self, fast, cell, decay):
        numerics.set_fast_gemm(fast)
        config = tiny_config(cell=cell, layers=2, state_size=8, vocab_size=9, mogrifier_rounds=4)
        rng = Rng(457)
        params = model.init_model_params(rng, config)
        stream = rng.integers(0, config.vocab_size, 60)
        static = evaluation.evaluate_static(params, config, stream, 1.3)
        dcfg = evaluation.DynevalConfig(segment=7, lr=0.0, decay=decay)
        dynamic = evaluation.evaluate_dynamic(params, config, stream, dcfg, 1.3)
        assert dynamic.total_nats == static.total_nats
        assert dynamic.token_count == static.token_count


def poisoned_params(config, seed=440):
    """Parameters with a NaN in one cell weight of the first layer."""
    params = model.init_model_params(Rng(seed), config)
    cell = params.layers.cell
    (cell.w if config.cell == "lstm" else cell.w_ij)[0, 1, 2] = np.nan
    return params


class TestLeanStep:
    """The steps of forward_window carry no guard work of their own: overflow
    is silenced, finiteness checked and the mogrifiers validated once per
    window, with the same errors as a per-step check would raise."""

    @pytest.mark.parametrize("cell", ["lstm", "rlstm"])
    @pytest.mark.parametrize("backward", [False, True])
    def test_non_finite_weight_raises_the_cell_error(self, cell, backward):
        config = tiny_config(cell=cell)
        params = poisoned_params(config)
        batch = 3 if backward else 1
        rng = Rng(441)
        states = random_states(rng, config.layers, batch, 4)
        before = CellState(states.c.copy(), states.h.copy())
        inputs = rng.integers(0, config.vocab_size, (batch, 5))
        masks = model.ones_masks(config, batch, 5)
        with pytest.raises(DivergenceError) as raised:
            model.forward_window(params, config, inputs, masks, states, backward=backward)
        assert str(raised.value) == "non-finite cell activations"
        assert_same_states(states, before)

    @pytest.mark.parametrize("cell", ["lstm", "rlstm"])
    def test_infinite_cell_state_alone_raises(self, cell):
        # An infinite c leaves h = o * tanh(c) finite, so only the check of
        # the final c sees it.
        config = tiny_config(cell=cell)
        params = model.init_model_params(Rng(442), config)
        states = CellState(*np.zeros((2, config.layers, 1, config.state_size)))
        states.c[0, 0, 1] = np.inf
        masks = model.ones_masks(config, 1, 3)
        with pytest.raises(DivergenceError, match="^non-finite cell activations$"):
            model.forward_window(params, config, np.zeros((1, 3), np.int64), masks, states,
                                 backward=False)

    @pytest.mark.parametrize("cell", ["lstm", "rlstm"])
    def test_non_finite_output_alone_raises_the_cell_error(self, cell):
        # A NaN output gate in the top layer's one step leaves every c finite;
        # the check of the outputs must see it before the logits check does.
        config = tiny_config(cell=cell)
        params = model.init_model_params(Rng(449), config)
        cells.gate_views(layer_of(params.layers, -1).cell)["b_o"][0] = np.nan
        masks = model.ones_masks(config, 1, 1)
        with pytest.raises(DivergenceError, match="^non-finite cell activations$"):
            model.forward_window(params, config, np.zeros((1, 1), np.int64), masks,
                                 backward=False)

    @pytest.mark.parametrize("cell", ["lstm", "rlstm"])
    def test_error_state_is_kept_and_overflow_silenced(self, cell):
        config = tiny_config(cell=cell)
        params = model.init_model_params(Rng(443), config)
        params.vector *= 1e4  # pre-activations far beyond where exp overflows
        inputs = Rng(444).integers(0, config.vocab_size, (2, 5))
        masks = model.ones_masks(config, 2, 5)
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_probs, _, _ = model.forward_window(params, config, inputs, masks)
        assert np.all(np.isfinite(log_probs))
        assert np.geterr() == before
        with pytest.raises(DivergenceError):
            model.forward_window(poisoned_params(config), config, inputs, masks)
        assert np.geterr() == before

    @pytest.mark.parametrize("backward", [False, True])
    def test_validates_once(self, monkeypatch, backward):
        # That no step validates or checks finiteness is a source check
        # (tests/test_source.py); here the window validates once.
        config = tiny_config(layers=3)
        params = model.init_model_params(Rng(445), config)
        calls = []
        validate = mogrifier.MogrifierParams.validate

        def counted_validate(p):
            calls.append(p)
            return validate(p)

        monkeypatch.setattr(mogrifier.MogrifierParams, "validate", counted_validate)
        inputs = Rng(446).integers(0, config.vocab_size, (2, 6))
        model.forward_window(params, config, inputs, model.ones_masks(config, 2, 6),
                             backward=backward)
        assert len(calls) == 1

    def test_mogrifier_with_the_wrong_gate_count_is_refused(self):
        config = tiny_config()
        params = model.init_model_params(Rng(447), config)
        params.layers.mog.rounds = 3  # its gates are for 2 rounds
        with pytest.raises(ValueError, match="rounds=3 needs 2 x-gates and 1 h-gates"):
            model.forward_window(params, config, np.zeros((1, 2), np.int64),
                                 model.ones_masks(config, 1, 2), buffers=model.WindowBuffers())

    def test_diverging_window_gives_its_block_back(self):
        config = tiny_config()
        params = model.init_model_params(Rng(448), config)
        inputs = np.zeros((3, 4), np.int64)
        masks = model.ones_masks(config, 3, 4)
        buffers = model.WindowBuffers()
        log_probs, cache, _ = model.forward_window(params, config, inputs, masks, buffers=buffers)
        block = cache.plan.block
        spend(params, config, log_probs, cache)
        with pytest.raises(DivergenceError):
            model.forward_window(poisoned_params(config), config, inputs, masks, buffers=buffers)
        _, cache, _ = model.forward_window(params, config, inputs, masks, buffers=buffers)
        assert cache.plan.block is block


def masked(x, mask, index):
    """x times mask[index], or x itself where the family is absent (keep 1)."""
    return x if mask is None else x * mask[index]


# --- Reference: the layer-by-layer loops --------------------------------------
# The window loops that the wavefronts replaced: each step runs the layers one
# after the other, each layer on (T, B, .) window buffers of its own, and the
# backward pass runs the steps from last to first and each step's layers from
# top to bottom.  The wavefronts must give their bits: log-probs, final states
# and the gradient vector.


@dataclass
class LayerwiseCache:
    inputs: np.ndarray
    masks: model.MaskSet
    mog_windows: list  # [l] -> MogrifyCache of (T, B, .) buffers
    cell_windows: list  # [l] -> CellCache of (T, B, .) buffers
    mog_caches: list  # [t][l] -> the step-t view of mog_windows[l]
    cell_caches: list  # [t][l] -> the step-t view of cell_windows[l], with its c_prev
    outputs: np.ndarray
    probs: np.ndarray


def layerwise_forward(params, config, inputs, masks, states=None):
    """(log_probs, cache, final states) of the layer-by-layer loop."""
    batch, horizon = inputs.shape
    n, dtype = config.state_size, config.np_dtype
    if states is None:
        states = CellState(*np.zeros((2, config.layers, batch, n), dtype))
    states = [layer_of(states, l).copy() for l in range(config.layers)]
    layers = [layer_of(params.layers, l) for l in range(config.layers)]
    weights = [
        (mogrifier.forward_weights(layer.mog), cells.forward_weights(layer.cell)) for layer in layers
    ]
    cell_windows, mog_windows = [], []
    for l, layer in enumerate(layers):
        window = cells.new_cache(config.cell, (horizon, batch), n, n, dtype)
        window.capped = config.cap_input_gate
        if config.cell == "rlstm" and masks.m_state is not None:
            window.state_mask = masks.m_state[l]
        tops = (window.xh[..., :n], window.xh[..., n:])
        cell_windows.append(window)
        mog_windows.append(mogrifier.new_cache(layer.mog, (horizon, batch), n, n, dtype, tops))
    cell_caches = [[w.at(t) for w in cell_windows] for t in range(horizon)]
    mog_caches = [[w.at(t) for w in mog_windows] for t in range(horizon)]
    cell_step = cells.rlstm_forward if config.cell == "rlstm" else cells.lstm_forward
    cell_work = cells.new_work(config.cell, (batch,), n, dtype)
    mog_work = mogrifier.new_work(layers[0].mog, (batch,), dtype)
    outputs = np.empty((horizon, batch, n), dtype)
    with np.errstate(over="ignore"):
        for t in range(horizon):
            x0 = masked(params.e_in[inputs[:, t]], masks.m_in, t)
            xhats = []
            for l, layer in enumerate(layers):
                if l == 0:
                    x_in = x0
                else:
                    x_in = xhats[0].copy()
                    for xhat in xhats[1:]:
                        x_in += xhat
                    if config.residual_includes_embedding:
                        x_in += x0
                mog_step = mog_caches[t][l]
                mog_step.x_ladder[0][...] = x_in
                mog_step.h_ladder[0][...] = masked(states[l].h, masks.m_state, l)
                mog_w, cell_w = weights[l]
                mogrifier.mogrify_forward(mogrifier.bind(mog_w, mog_step, mog_work))
                step, h = cell_caches[t][l], np.empty((batch, n), dtype)
                step.c_prev = states[l].c
                cell_step(cell_w, step, h, cell_work)
                states[l] = CellState(step.c, h)
                xhats.append(masked(states[l].h, masks.m_cell, (l, t)))
            outputs[t] = sum(xhats[1:], xhats[0])
            if masks.m_out is not None:
                outputs[t] *= masks.m_out[t]
    logits = numerics.gemm(outputs.reshape(-1, n), params.e_out, rowwise=batch == 1)
    logits += params.b_out
    log_probs = numerics.log_softmax(logits.reshape(horizon, batch, -1).transpose(1, 0, 2))
    cache = LayerwiseCache(
        inputs, masks, mog_windows, cell_windows, mog_caches, cell_caches, outputs,
        np.exp(log_probs),
    )
    return log_probs, cache, CellState(*(np.stack([getattr(s, a) for s in states]) for a in "ch"))


def layerwise_backward(params, config, cache, grad_log_probs):
    """The gradients of the layer-by-layer loop, at temperature 1."""
    batch, horizon = cache.inputs.shape
    n, dtype, masks = config.state_size, config.np_dtype, cache.masks
    grads = model.empty_model_params(config)
    row_sums = np.sum(grad_log_probs, axis=-1, keepdims=True)
    dlogits = (grad_log_probs - cache.probs * row_sums) / 1.0
    dlogits = dlogits.transpose(1, 0, 2).reshape(horizon * batch, -1)
    e_out_grad = numerics.gemm(cache.outputs.reshape(-1, n).T, dlogits)
    grads.b_out[...] = dlogits.sum(axis=0)
    dsum = numerics.gemm(dlogits, params.e_out.T).reshape(horizon, batch, n)
    if masks.m_out is not None:
        dsum *= masks.m_out
    layers = [layer_of(params.layers, l) for l in range(config.layers)]
    grad_c = [np.zeros((batch, n), dtype) for _ in layers]
    grad_h_masked = [np.zeros((batch, n), dtype) for _ in layers]
    for t in range(horizon - 1, -1, -1):
        dx_residual = np.zeros((batch, n), dtype)  # grad flowing into lower xhats
        dx0 = np.zeros((batch, n), dtype)
        for l in range(config.layers - 1, -1, -1):
            layer = layers[l]
            dxhat = dsum[t] + dx_residual
            dh = masked(dxhat, masks.m_cell, (l, t)) + masked(grad_h_masked[l], masks.m_state, l)
            grad_c[l], dmog_h, dmog_x = cells.cell_backward(
                layer.cell, cache.cell_caches[t][l], grad_c[l], dh
            )
            grad_h_masked[l], dx_in = mogrifier.mogrify_backward(
                layer.mog, cache.mog_caches[t][l], dmog_h, dmog_x
            )
            if l == 0:
                dx0 += dx_in
            else:
                dx_residual += dx_in
                if config.residual_includes_embedding:
                    dx0 += dx_in
        dsum[t] = masked(dx0, masks.m_in, t)
    if params.tied:
        grads.e_in[...] = e_out_grad.T
    else:
        grads.e_out_untied[...] = e_out_grad
    np.add.at(grads.e_in, cache.inputs.T.ravel(), dsum.reshape(-1, n))
    # Per layer, one 2-D gemm per weight matrix, where the model makes one
    # stacked gemm: the bits must be the same.
    for l, (layer, cell_window, mog_window) in enumerate(
        zip(layers, cache.cell_windows, cache.mog_windows, strict=True)
    ):
        grad = layer_of(grads.layers, l)
        cells.weight_grads(layer.cell, cell_window, out=grad.cell)
        mogrifier.weight_grads(layer.mog, mog_window, out=grad.mog)
    return grads


# (batch, dtype, fast gemm, keeps, residual_includes_embedding, carried states):
# every value of each, over eight windows per model shape.
EVERY_FAMILY = dict(keep_in=0.7, keep_cell=0.6, keep_state=0.8, keep_out=0.7)
WAVEFRONT_VARIANTS = [
    (1, "float64", False, {}, False, False),
    (1, "float64", True, {}, False, True),
    (1, "float32", True, EVERY_FAMILY, True, True),
    (3, "float64", True, dict(keep_cell=0.7, keep_out=0.8), True, False),
    (3, "float64", False, EVERY_FAMILY, True, True),
    (3, "float32", False, dict(keep_in=0.6, keep_state=0.7, input_mask_rows=True), False, True),
    (32, "float64", False, EVERY_FAMILY, True, True),
    (32, "float32", True, {}, False, False),
]


class TestWavefront:
    """The layers of a window run as a wavefront, the layers in range of a tick
    as one stacked step, with the bits of the layer-by-layer loop."""

    @staticmethod
    def make_case(cell, rounds, rank, layers, variant, seed, horizon=5):
        batch, dtype, fast, keeps, embedding, carried = variant
        numerics.set_fast_gemm(fast)
        config = tiny_config(
            cell="rlstm" if cell == "rlstm" else "lstm", cap_input_gate=cell != "lstm_uncapped",
            layers=layers, state_size=6, vocab_size=7, mogrifier_rounds=rounds,
            mogrifier_rank=rank, residual_includes_embedding=embedding, tie_embeddings=False,
            dtype=dtype, **keeps,
        )
        rng = Rng(seed)
        params = model.init_model_params(rng, config)
        inputs = rng.integers(0, config.vocab_size, (batch, horizon))
        targets = rng.integers(0, config.vocab_size, (batch, horizon))
        states = random_states(rng, layers, batch, 6, dtype) if carried else None
        masks = model.sample_masks(rng, config, batch, horizon)
        return config, params, inputs, targets, states, masks

    @pytest.mark.parametrize("cell", ["lstm", "lstm_uncapped", "rlstm"])
    @pytest.mark.parametrize(
        "rounds, rank", [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (1, 2), (2, 2), (3, 2), (4, 2)]
    )
    # Windows of 1 and 2 steps under 3 layers have no tick that holds every layer.
    @pytest.mark.parametrize(
        "layers, horizon", [(1, 5), (2, 5), (3, 5), (3, 1), (3, 2)],
        ids=["1", "2", "3", "3-T1", "3-T2"],
    )
    def test_matches_the_layer_by_layer_loop(self, cell, rounds, rank, layers, horizon):
        for index, variant in enumerate(WAVEFRONT_VARIANTS):
            config, params, inputs, targets, states, masks = self.make_case(
                cell, rounds, rank, layers, variant, 600 + 10 * layers + index, horizon
            )
            log_probs, cache, final = model.forward_window(params, config, inputs, masks, states)
            ref_log_probs, ref_cache, ref_final = layerwise_forward(
                params, config, inputs, masks, states
            )
            assert log_probs.tobytes() == ref_log_probs.tobytes()
            assert_same_states(final, ref_final)
            _, grad_lp = model.nll_from_log_probs(log_probs, targets)
            grads = model.backward_window(params, config, cache, grad_lp)
            ref_grads = layerwise_backward(params, config, ref_cache, grad_lp)
            assert grads.vector.tobytes() == ref_grads.vector.tobytes()
            scored, _, scored_final = model.forward_window(
                params, config, inputs, masks, states, backward=False
            )
            assert scored.tobytes() == ref_log_probs.tobytes()
            assert_same_states(scored_final, ref_final)
            buffers = model.WindowBuffers()
            for _ in range(2):  # the second window runs on the plan the first one left
                again, again_cache, again_final = model.forward_window(
                    params, config, inputs, masks, states, buffers=buffers
                )
                assert again.tobytes() == ref_log_probs.tobytes()
                assert_same_states(again_final, ref_final)
                again_grads = model.backward_window(params, config, again_cache, grad_lp)
                assert again_grads.vector.tobytes() == ref_grads.vector.tobytes()

    @pytest.mark.parametrize("backward", [False, True])
    @pytest.mark.parametrize("layers", [1, 3])
    def test_one_stacked_step_per_tick(self, monkeypatch, backward, layers):
        # L layers over T steps make T + L - 1 ticks, each one call of the
        # mogrifier and one of the cell, in place of L * T of each.
        calls = {"mogrify_forward": 0, "rlstm_forward": 0}
        for module, name in ((mogrifier, "mogrify_forward"), (cells, "rlstm_forward")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        config = tiny_config(layers=layers)
        params = model.init_model_params(Rng(650), config)
        inputs = Rng(651).integers(0, config.vocab_size, (2, 7))
        model.forward_window(params, config, inputs, model.ones_masks(config, 2, 7),
                             backward=backward)
        assert calls == {"mogrify_forward": 7 + layers - 1, "rlstm_forward": 7 + layers - 1}

    @pytest.mark.parametrize("cell", ["lstm", "rlstm"])
    @pytest.mark.parametrize("layers", [1, 3])
    def test_one_stacked_backward_step_per_reverse_tick(self, monkeypatch, cell, layers):
        # The backward pass is the same wavefront run backwards: T + L - 1
        # reverse ticks, each one cell and one mogrifier backward call.
        calls = {"mogrify_backward": 0, f"{cell}_backward": 0}
        for module, name in ((mogrifier, "mogrify_backward"), (cells, f"{cell}_backward")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        config = tiny_config(cell=cell, layers=layers)
        params = model.init_model_params(Rng(652), config)
        inputs = Rng(653).integers(0, config.vocab_size, (2, 7))
        log_probs, cache, _ = model.forward_window(
            params, config, inputs, model.ones_masks(config, 2, 7)
        )
        _, grad_lp = model.nll_from_log_probs(log_probs, inputs)
        model.backward_window(params, config, cache, grad_lp)
        assert calls == {"mogrify_backward": 7 + layers - 1, f"{cell}_backward": 7 + layers - 1}

    @pytest.mark.parametrize("cell", ["lstm", "rlstm"])
    @pytest.mark.parametrize("horizon", [1, 7])
    def test_backward_reads_the_forward_ticks(self, monkeypatch, cell, horizon):
        # The backward pass walks the views that the forward's ticks made,
        # and makes none of its own.
        config = tiny_config(cell=cell, layers=3, keep_state=0.8)
        params = model.init_model_params(Rng(654), config)
        rng = Rng(655)
        inputs = rng.integers(0, config.vocab_size, (2, horizon))
        masks = model.sample_masks(rng, config, 2, horizon)
        log_probs, cache, _ = model.forward_window(params, config, inputs, masks)
        assert len(cache.plan.ticks) == horizon + config.layers - 1
        views = []
        for cls in (cells.CellCache, mogrifier.MogrifyCache):
            original = cls.at

            def counted(self, t, _original=original):
                views.append(t)
                return _original(self, t)

            monkeypatch.setattr(cls, "at", counted)
        _, grad_lp = model.nll_from_log_probs(log_probs, inputs)
        model.backward_window(params, config, cache, grad_lp)
        assert views == []


class TestBenchmarkCalls:
    """perfbench/workloads.py checks a trained model's cell states from
    outside the command line, through model.ones_masks(config, B, T),
    model.forward_window(params, config, rows, masks) and, on the returned
    cache, cell_caches[t][l].c: these calls must keep working."""

    def test_max_abs_cell_state(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        config = tiny_config(layers=3)
        rng = Rng(670)
        params = model.init_model_params(rng, config)
        path = tmp_path / "model.ckpt"
        radam, tta = training.radam_init(params.vector, 1e-3), training.tta_init(params.vector)
        checkpoint.save_checkpoint(
            path, training.Checkpoint(config, params, radam, tta, rng.state(), 1.0)
        )
        stream = rng.integers(0, config.vocab_size, 40)
        got = workloads.max_abs_cell_state(path, stream, 3, 5)

        rows = data.batchify(stream, 3)[:, :5]
        _, cache, final = model.forward_window(params, config, rows, model.ones_masks(config, 3, 5))
        steps = cache.cell_caches
        assert len(steps) == 5 and all(len(step) == config.layers for step in steps)
        assert steps[-1][-1].c.tobytes() == final.c[-1].tobytes()
        states, peak = None, 0.0  # the states after each step, one window per step
        for t in range(5):
            _, states = model.predict_deterministic(params, config, rows[:, [t]], states=states)
            peak = max(peak, float(np.max(np.abs(states.c))))
        assert got == peak
