import numpy as np
import pytest

from rnnlab import mogrifier
from rnnlab.mogrifier import LowRank, MogrifierParams
from rnnlab.numerics import Rng, sigmoid


def gate_matrix(w):
    return w.u @ w.v if isinstance(w, LowRank) else w


def ladder_by_recursion(p, h, x):
    """Direct transcription of the alternating update, kept independent of
    the module's ladder bookkeeping: odd rounds rescale x from the newest h,
    even rounds rescale h from the newest x."""
    cur_x, cur_h = x, h
    for index in range(1, p.rounds + 1):
        if index % 2 == 1:
            w = gate_matrix(p.x_gates[index // 2])
            cur_x = 2.0 * sigmoid(cur_h @ w.T) * cur_x
        else:
            w = gate_matrix(p.h_gates[index // 2 - 1])
            cur_h = 2.0 * sigmoid(cur_x @ w.T) * cur_h
    return cur_h, cur_x


def run_rounds(p, h, x, cache=None):
    """mogrify_forward on `cache`, or on a one-step cache of its own, with h
    and x written into its ladder bottoms as the model does: (h out, x out,
    cache)."""
    if cache is None:
        cache = mogrifier.new_cache(p, x.shape[:-1], x.shape[-1], h.shape[-1])
    cache.x_ladder[0][...], cache.h_ladder[0][...] = x, h
    work = mogrifier.new_work(p, x.shape[:-1])
    mogrifier.mogrify_forward(mogrifier.bind(mogrifier.forward_weights(p), cache, work))
    return cache.h_ladder[-1], cache.x_ladder[-1], cache


class TestForward:
    def test_zero_rounds_is_identity(self):
        rng = Rng(200)
        p = MogrifierParams(rounds=0)
        h = rng.uniform(-1, 1, (3, 5))
        x = rng.uniform(-1, 1, (3, 4))
        h_out, x_out, cache = run_rounds(p, h, x)
        assert h_out is cache.h_ladder[0] and x_out is cache.x_ladder[0]
        assert np.array_equal(h_out, h) and np.array_equal(x_out, x)
        assert len(cache.gates) == 0

    @pytest.mark.parametrize("rounds", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("rank", [0, 2])
    def test_matches_recursion_oracle(self, rounds, rank):
        rng = Rng(201 + rounds)
        p = mogrifier.init_mogrifier_params(rng, m=4, n=5, rounds=rounds, rank=rank)
        h = rng.uniform(-1, 1, (3, 5))
        x = rng.uniform(-1, 1, (3, 4))
        h_out, x_out, _ = run_rounds(p, h, x)
        h_ref, x_ref = ladder_by_recursion(p, h, x)
        assert np.allclose(h_out, h_ref, atol=1e-13)
        assert np.allclose(x_out, x_ref, atol=1e-13)

    @pytest.mark.parametrize("rounds,n_x,n_h", [(1, 2, 1), (2, 2, 2), (3, 3, 2), (4, 3, 3), (5, 4, 3)])
    def test_ladder_lengths_alternate(self, rounds, n_x, n_h):
        rng = Rng(210)
        p = mogrifier.init_mogrifier_params(rng, m=4, n=5, rounds=rounds)
        _, _, cache = run_rounds(p, rng.random((2, 5)), rng.random((2, 4)))
        assert len(cache.x_ladder) == n_x
        assert len(cache.h_ladder) == n_h

    def test_zero_weights_gate_by_exactly_one(self):
        p = mogrifier.init_mogrifier_params(Rng(0), m=4, n=5, rounds=4)
        for k in range(len(p.x_gates)):
            p.x_gates[k][:] = 0.0
        for k in range(len(p.h_gates)):
            p.h_gates[k][:] = 0.0
        rng = Rng(211)
        h = rng.uniform(-1, 1, (2, 5))
        x = rng.uniform(-1, 1, (2, 4))
        h_out, x_out, _ = run_rounds(p, h, x)
        assert np.array_equal(h_out, h)
        assert np.array_equal(x_out, x)

    def test_lowrank_equals_full_product(self):
        rng = Rng(212)
        low = mogrifier.init_mogrifier_params(rng, m=4, n=5, rounds=5, rank=3)
        full = MogrifierParams(
            rounds=5,
            x_gates=[gate_matrix(w).copy() for w in low.x_gates],
            h_gates=[gate_matrix(w).copy() for w in low.h_gates],
        )
        h = rng.uniform(-1, 1, (3, 5))
        x = rng.uniform(-1, 1, (3, 4))
        h_low, x_low, _ = run_rounds(low, h, x)
        h_full, x_full, _ = run_rounds(full, h, x)
        assert np.allclose(h_low, h_full, atol=1e-13)
        assert np.allclose(x_low, x_full, atol=1e-13)

    def test_gate_counts_per_round(self):
        for rounds in range(7):
            p = mogrifier.init_mogrifier_params(Rng(1), m=3, n=3, rounds=rounds)
            assert len(p.x_gates) == (rounds + 1) // 2
            assert len(p.h_gates) == rounds // 2
            p.validate()


class TestValidate:
    def test_negative_rounds(self):
        with pytest.raises(ValueError):
            MogrifierParams(rounds=-1).validate()
        with pytest.raises(ValueError):
            mogrifier.init_mogrifier_params(Rng(0), 3, 3, rounds=-2)

    def test_gate_count_mismatch(self):
        p = mogrifier.init_mogrifier_params(Rng(0), 3, 3, rounds=3)
        p.x_gates.pop()
        with pytest.raises(ValueError, match="needs 2 x-gates"):
            p.validate()


class TestBackward:
    @pytest.mark.parametrize("rounds", [1, 2, 5])
    @pytest.mark.parametrize("rank", [0, 2])
    def test_finite_difference(self, rounds, rank):
        from rnnlab.numerics import finite_difference_gradient, max_relative_error
        from rnnlab.ptree import flatten, unflatten_into

        rng = Rng(220 + rounds)
        p = mogrifier.init_mogrifier_params(rng, m=4, n=5, rounds=rounds, rank=rank)
        h = rng.uniform(-1, 1, (2, 5))
        x = rng.uniform(-1, 1, (2, 4))
        probe_h = rng.uniform(-1, 1, (2, 5))
        probe_x = rng.uniform(-1, 1, (2, 4))
        theta0 = flatten(p)

        def loss(theta):
            unflatten_into(p, theta)
            h_out, x_out, _ = run_rounds(p, h, x)
            return float(np.sum(h_out * probe_h) + np.sum(x_out * probe_x))

        numeric = finite_difference_gradient(loss, theta0)
        unflatten_into(p, theta0)
        _, _, cache = run_rounds(p, h, x)
        mogrifier.mogrify_backward(p, cache, probe_h, probe_x)
        grads = mogrifier.weight_grads(p, cache, out=mogrifier.new_params(4, 5, rounds, rank))
        assert max_relative_error(flatten(grads), numeric) < 1e-6

    def test_input_gradients(self):
        # dh/dx through the ladder, probed against central differences on the
        # inputs themselves rather than the weights.
        rng = Rng(230)
        p = mogrifier.init_mogrifier_params(rng, m=4, n=5, rounds=4)
        h0 = rng.uniform(-1, 1, (1, 5))
        x0 = rng.uniform(-1, 1, (1, 4))
        probe_h = rng.uniform(-1, 1, (1, 5))
        probe_x = rng.uniform(-1, 1, (1, 4))

        _, _, cache = run_rounds(p, h0, x0)
        dh, dx = mogrifier.mogrify_backward(p, cache, probe_h, probe_x)

        eps = 1e-6
        for arr, grad in ((h0, dh), (x0, dx)):
            for k in range(arr.size):
                orig = arr.flat[k]
                arr.flat[k] = orig + eps
                h_p, x_p, _ = run_rounds(p, h0, x0)
                up = float(np.sum(h_p * probe_h) + np.sum(x_p * probe_x))
                arr.flat[k] = orig - eps
                h_m, x_m, _ = run_rounds(p, h0, x0)
                down = float(np.sum(h_m * probe_h) + np.sum(x_m * probe_x))
                arr.flat[k] = orig
                assert abs(grad.flat[k] - (up - down) / (2 * eps)) < 1e-7

    @pytest.mark.parametrize("rounds", [3, 4])
    @pytest.mark.parametrize("rank", [0, 2])
    def test_window_cache_matches_fresh_steps(self, rounds, rank):
        # A (T, B) cache filled step by step gives the outputs, input gradients
        # and summed weight gradients of separate one-step caches.
        from rnnlab.ptree import accumulate, flatten

        rng = Rng(240 + rounds)
        p = mogrifier.init_mogrifier_params(rng, m=4, n=5, rounds=rounds, rank=rank)
        horizon, batch = 3, 2
        hs = rng.uniform(-1, 1, (horizon, batch, 5))
        xs = rng.uniform(-1, 1, (horizon, batch, 4))
        probe_h = rng.uniform(-1, 1, (batch, 5))
        probe_x = rng.uniform(-1, 1, (batch, 4))
        window = mogrifier.new_cache(p, (horizon, batch), 4, 5)

        def zeros():
            return mogrifier.new_params(4, 5, rounds, rank)

        summed = zeros()
        for t in range(horizon):
            h_w, x_w, step = run_rounds(p, hs[t], xs[t], window.at(t))
            h_f, x_f, fresh = run_rounds(p, hs[t], xs[t])
            assert np.array_equal(h_w, h_f) and np.array_equal(x_w, x_f)
            dh_w, dx_w = mogrifier.mogrify_backward(p, step, probe_h, probe_x)
            dh_f, dx_f = mogrifier.mogrify_backward(p, fresh, probe_h, probe_x)
            assert np.array_equal(dh_w, dh_f) and np.array_equal(dx_w, dx_f)
            accumulate(summed, mogrifier.weight_grads(p, fresh, out=zeros()))
        window_grads = flatten(mogrifier.weight_grads(p, window, out=zeros()))
        assert np.allclose(window_grads, flatten(summed), rtol=1e-12, atol=1e-14)
