import numpy as np
import pytest

from rnnlab import cells
from rnnlab.cells import CellCache, CellState
from rnnlab.numerics import Rng, sigmoid
from rnnlab.ptree import accumulate, flatten


def random_lstm(rng, m=6, n=5, t_max=8.0):
    return cells.init_cell_params(rng, m, n, "lstm", t_max)


def random_rlstm(rng, m=6, n=5, t_max=8.0):
    return cells.init_cell_params(rng, m, n, "rlstm", t_max)


def random_state(rng, batch, n, bounded=True):
    c = rng.uniform(-1, 1, (batch, n)) if bounded else rng.uniform(-3, 3, (batch, n))
    h = rng.uniform(-1, 1, (batch, n))
    return CellState(c, h)


def run_step(p, state, x, cache=None, cap_input_gate=True, state_mask=None):
    """One step of p's cell on `cache`, or on a one-step cache of its own,
    bound as the model binds a tick's: [x, state.h] written into its xh,
    state.c as its c_prev, the mask and the cap set, and new_work scratch.
    Returns (new state, cache)."""
    kind = "lstm" if isinstance(p, cells.LstmParams) else "rlstm"
    if cache is None:
        cache = cells.new_cache(kind, x.shape[:-1], x.shape[-1], p.state_size)
    np.concatenate((x, state.h), axis=-1, out=cache.xh)
    cache.c_prev, cache.state_mask, cache.capped = state.c, state_mask, cap_input_gate
    h = np.empty_like(state.h)
    work = cells.new_work(kind, x.shape[:-1], p.state_size)
    getattr(cells, f"{kind}_forward")(cells.forward_weights(p), cache, h, work)
    return CellState(cache.c, h), cache


class TestLstmForward:
    def test_equations_recomputed_inline(self):
        rng = Rng(100)
        p = random_lstm(rng)
        state = random_state(rng, 3, 5)
        x = rng.uniform(-1, 1, (3, 6))
        new, cache = run_step(p, state, x)

        v = cells.gate_views(p)
        i = sigmoid(x @ v["w_ix"].T + state.h @ v["w_ih"].T + v["b_i"])
        j = np.tanh(x @ v["w_jx"].T + state.h @ v["w_jh"].T + v["b_j"])
        f = sigmoid(x @ v["w_fx"].T + state.h @ v["w_fh"].T + v["b_f"])
        o = sigmoid(x @ v["w_ox"].T + state.h @ v["w_oh"].T + v["b_o"])
        g = np.minimum(i, 1 - f)
        c = f * state.c + g * j
        assert np.allclose(new.c, c, atol=1e-13)
        assert np.allclose(new.h, o * np.tanh(c), atol=1e-13)
        assert np.allclose(cache.gates, np.concatenate([i, j, f, o], axis=1), atol=1e-13)

    def test_uncapped_uses_raw_input_gate(self):
        rng = Rng(101)
        p = random_lstm(rng)
        state = random_state(rng, 2, 5)
        x = rng.uniform(-1, 1, (2, 6))
        new, cache = run_step(p, state, x, cap_input_gate=False)
        i, j, f, _ = np.split(cache.gates, 4, axis=1)
        assert np.array_equal(new.c, f * state.c + i * j)

    def test_capped_state_stays_bounded(self):
        rng = Rng(102)
        p = random_lstm(rng)
        state = CellState(*np.zeros((2, 4, 5)))
        for _ in range(200):
            x = rng.uniform(-4, 4, (4, 6))
            state, _ = run_step(p, state, x)
            assert np.max(np.abs(state.c)) <= 1.0 + 1e-12

    def test_uncapped_state_can_exceed_one(self):
        # Push i and f toward 1 so c accumulates: the cap is what bounds it.
        rng = Rng(103)
        p = random_lstm(rng)
        v = cells.gate_views(p)
        v["b_i"][:] = 10.0
        v["b_f"][:] = 10.0
        v["b_j"][:] = 3.0
        state = CellState(*np.zeros((2, 1, 5)))
        for _ in range(10):
            x = rng.uniform(-0.1, 0.1, (1, 6))
            state, _ = run_step(p, state, x, cap_input_gate=False)
        assert np.max(np.abs(state.c)) > 1.0


class TestRlstmForward:
    def test_equations_recomputed_inline(self):
        rng = Rng(110)
        p = random_rlstm(rng)
        state = random_state(rng, 3, 5)
        x = rng.uniform(-1, 1, (3, 6))
        mask = 0.5 + rng.random((3, 5))
        new, cache = run_step(p, state, x, state_mask=mask)

        v = cells.gate_views(p)
        i = sigmoid(x @ v["w_ix"].T + state.h @ v["w_ih"].T + v["b_i"])
        j = np.tanh(x @ v["w_jx"].T + state.h @ v["w_jh"].T + v["b_j"])
        f = sigmoid((i * j) @ v["w_fu"].T + state.h @ v["w_fh"].T + v["b_f"])
        g = np.minimum(i, 1 - f)
        c = f * state.c + g * j
        o = sigmoid((c * mask) @ v["w_oc"].T + v["b_o"])
        assert np.allclose(new.c, c, atol=1e-13)
        assert np.allclose(new.h, o * np.tanh(c), atol=1e-13)

    def test_forget_gate_has_no_direct_input_path(self):
        # f depends on x only through i*j; with w_fu zero, f ignores x entirely.
        rng = Rng(111)
        p = random_rlstm(rng)
        cells.gate_views(p)["w_fu"][:] = 0.0
        state = random_state(rng, 2, 5)
        x1 = rng.uniform(-1, 1, (2, 6))
        x2 = rng.uniform(-1, 1, (2, 6))
        _, cache1 = run_step(p, state.copy(), x1)
        _, cache2 = run_step(p, state.copy(), x2)
        f1, f2 = (np.split(cache.gates, 4, axis=1)[2] for cache in (cache1, cache2))
        assert np.array_equal(f1, f2)

    def test_output_gate_reads_masked_cell_state(self):
        rng = Rng(112)
        p = random_rlstm(rng)
        state = random_state(rng, 2, 5)
        x = rng.uniform(-1, 1, (2, 6))
        ones = np.ones((2, 5))
        mask = np.zeros((2, 5))
        no_mask, _ = run_step(p, state.copy(), x, state_mask=None)
        with_ones, _ = run_step(p, state.copy(), x, state_mask=ones)
        assert np.array_equal(no_mask.h, with_ones.h)
        zeroed, cache = run_step(p, state.copy(), x, state_mask=mask)
        o = np.split(cache.gates, 4, axis=1)[3]
        b_o = cells.gate_views(p)["b_o"]
        assert np.allclose(o, sigmoid(np.broadcast_to(b_o, (2, 5))), atol=1e-14)
        assert not np.array_equal(zeroed.h, no_mask.h)

    def test_state_always_bounded(self):
        rng = Rng(113)
        p = random_rlstm(rng)
        state = CellState(*np.zeros((2, 4, 5)))
        for _ in range(200):
            x = rng.uniform(-4, 4, (4, 6))
            state, _ = run_step(p, state, x)
            assert np.max(np.abs(state.c)) <= 1.0 + 1e-12


class TestBackward:
    def _single_step_check(self, kind, cap):
        # One-step finite-difference probe; multi-step rollouts live in the
        # gradcheck suite.
        from rnnlab.numerics import finite_difference_gradient, max_relative_error
        from rnnlab.ptree import flatten, unflatten_into

        rng = Rng(120)
        p = (random_rlstm if kind == "rlstm" else random_lstm)(rng)
        state0 = random_state(rng, 2, 5)
        x = rng.uniform(-1, 1, (2, 6))
        probe_h = rng.uniform(-1, 1, (2, 5))
        probe_c = rng.uniform(-1, 1, (2, 5))
        mask = 0.5 + rng.random((2, 5)) if kind == "rlstm" else None
        theta0 = flatten(p)

        def run():
            return run_step(p, state0, x, cap_input_gate=cap, state_mask=mask)

        def loss(theta):
            unflatten_into(p, theta)
            new, _ = run()
            return float(np.sum(new.h * probe_h) + np.sum(new.c * probe_c))

        numeric = finite_difference_gradient(loss, theta0)
        unflatten_into(p, theta0)
        _, cache = run()
        cells.cell_backward(p, cache, probe_c, probe_h)
        grads = cells.weight_grads(p, cache, out=cells.new_params(kind, 6, 5))
        assert max_relative_error(flatten(grads), numeric) < 1e-6

    def test_lstm_capped_gradients(self):
        self._single_step_check("lstm", True)

    def test_lstm_uncapped_gradients(self):
        self._single_step_check("lstm", False)

    def test_rlstm_gradients(self):
        self._single_step_check("rlstm", True)

    @pytest.mark.parametrize("kind", ["lstm", "rlstm"])
    def test_min_subgradient_tie_goes_to_input_gate(self, kind):
        # Doctor a cache where i == 1 - f exactly; the tie must route the
        # gate gradient to i and leave f's capping contribution at zero.
        # Both cells share the rule.
        n = 3
        i = np.full((1, n), 0.25)
        f = np.full((1, n), 0.75)
        cache = CellCache(
            xh=np.zeros((1, 2 + n)),
            gates=np.concatenate([i, np.full((1, n), 0.5), f, np.full((1, n), 0.5)], axis=1),
            c=np.zeros((1, n)),
            tanh_c=np.zeros((1, n)),
            uh=np.zeros((1, 2 * n)) if kind == "rlstm" else None,
            c_prev=np.zeros((1, n)),
            capped=True,
        )
        p = cells.init_cell_params(Rng(0), 2, n, kind, 4.0)
        cells.cell_backward(p, cache, np.ones((1, n)), np.zeros((1, n)))
        grads = cells.gate_views(cells.weight_grads(p, cache, out=cells.new_params(kind, 2, n)))
        # dg = c_prev-free path: dc * j = 1 * 0.5; routed to i means b_i grad
        # is nonzero and the -dg part of b_f grad is absent (df = dc*c_prev = 0).
        # With grad_h = 0 the rewired cell's dpre_o, and with it du, is 0 too.
        assert np.all(grads["b_i"] != 0.0)
        assert np.all(grads["b_f"] == 0.0)
        assert np.all(grads["b_o"] == 0.0)

    def test_unknown_cache_type_rejected(self):
        with pytest.raises(TypeError):
            cells.cell_backward(None, object(), None, None)


class TestInit:
    def test_chrono_forget_bias_range(self):
        rng = Rng(130)
        t_max = 50.0
        v = cells.gate_views(cells.init_cell_params(rng, 4, 64, "lstm", t_max))
        assert np.all(v["b_f"] >= np.log(1.0) - 1e-12)
        assert np.all(v["b_f"] <= np.log(t_max - 1.0) + 1e-12)
        assert np.all(v["b_i"] == 0) and np.all(v["b_j"] == 0) and np.all(v["b_o"] == 0)

    def test_t_max_must_exceed_two(self):
        with pytest.raises(ValueError):
            cells.init_cell_params(Rng(0), 4, 4, "lstm", 2.0)
        with pytest.raises(ValueError):
            cells.init_cell_params(Rng(0), 4, 4, "rlstm", 1.5)

    def test_weight_scale(self):
        rng = Rng(131)
        n = 100
        v = cells.gate_views(cells.init_cell_params(rng, n, n, "rlstm", 8.0))
        bound = 1.0 / np.sqrt(n)
        for w in (v["w_ix"], v["w_ih"], v["w_fu"], v["w_oc"]):
            assert np.max(np.abs(w)) <= bound

    def test_dispatch(self):
        assert isinstance(cells.init_cell_params(Rng(0), 3, 3, "lstm", 5.0), cells.LstmParams)
        assert isinstance(cells.init_cell_params(Rng(0), 3, 3, "rlstm", 5.0), cells.RlstmParams)
        with pytest.raises(ValueError):
            cells.init_cell_params(Rng(0), 3, 3, "gru", 5.0)


class TestFusedLayout:
    @pytest.mark.parametrize("kind", ["lstm", "rlstm"])
    def test_init_draws_the_per_gate_blocks_in_order(self, kind):
        # The fused matrices hold the numbers one draw per gate block would
        # give, and init leaves the rng where those draws would.
        m, n, t_max = 3, 5, 8.0
        names = {
            "lstm": ["w_ix", "w_ih", "w_jx", "w_jh", "w_fx", "w_fh", "w_ox", "w_oh"],
            "rlstm": ["w_ix", "w_ih", "w_jx", "w_jh", "w_fu", "w_fh", "w_oc"],
        }[kind]
        rng_ref = Rng(140)
        scale = 1.0 / np.sqrt(n)
        ref = {
            name: rng_ref.uniform(-scale, scale, (n, m if name.endswith("x") else n))
            for name in names
        }
        ref["b_f"] = np.log(rng_ref.uniform(1.0, t_max - 1.0, n))
        rng = Rng(140)
        views = cells.gate_views(cells.init_cell_params(rng, m, n, kind, t_max))
        assert list(views)[: len(names)] == names
        for name, value in ref.items():
            assert views[name].tobytes() == value.tobytes()
        for name in ("b_i", "b_j", "b_o"):
            assert np.all(views[name] == 0.0)
        assert rng.state() == rng_ref.state()

    @pytest.mark.parametrize("kind", ["lstm", "rlstm"])
    def test_window_weight_grads_sum_the_steps(self, kind):
        rng = Rng(141)
        batch, horizon, m, n = 3, 4, 6, 5
        p = cells.init_cell_params(rng, m, n, kind, 8.0)
        window = cells.new_cache(kind, (horizon, batch), m, n)
        mask = 0.5 + rng.random((batch, n)) if kind == "rlstm" else None
        window.state_mask = mask
        state = random_state(rng, batch, n)
        steps = []
        for t in range(horizon):
            x = rng.uniform(-1, 1, (batch, m))
            state, step = run_step(p, state, x, window.at(t), state_mask=mask)
            steps.append(step)
        dc, dh = rng.uniform(-1, 1, (batch, n)), rng.uniform(-1, 1, (batch, n))
        total = cells.new_params(kind, m, n)
        for step in reversed(steps):
            dc, dh, _ = cells.cell_backward(p, step, dc, dh)
            accumulate(total, cells.weight_grads(p, step, out=cells.new_params(kind, m, n)))
        window_grads = flatten(cells.weight_grads(p, window, out=cells.new_params(kind, m, n)))
        assert np.allclose(window_grads, flatten(total), rtol=1e-12, atol=1e-14)
