import math
import re

import numpy as np
import pytest

from rnnlab import checkpoint, model, training
from rnnlab.model import ModelConfig
from rnnlab.numerics import DivergenceError, Rng
from rnnlab.ptree import flatten, named_arrays
from rnnlab.training import (
    Tail,
    TrainingDiverged,
    TrainOptions,
    TtaState,
    clip_global_norm,
    radam_init,
    radam_step,
    rectification_term,
    tta_evaluate_and_swap,
    tta_init,
    tta_update,
    train,
)


def small_tree():
    """A small model whose arrays view one parameter vector, small_tree().vector."""
    config = ModelConfig(layers=1, state_size=2, vocab_size=3, mogrifier_rounds=1, t_max=4.0)
    return model.init_model_params(Rng(42), config)


def radam_reference(theta0, grad_seq, lr, beta1, beta2, eps):
    """Textbook form of the update, kept separate from the implementation:
    explicit exponential moving averages and the closed-form rectifier."""
    theta = theta0.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    rho_inf = 2.0 / (1.0 - beta2) - 1.0
    trajectory = []
    for t, g in enumerate(grad_seq, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        rho = rho_inf - 2.0 * t * beta2**t / (1.0 - beta2**t)
        if rho > 4.0:
            r = math.sqrt(
                (rho - 4.0) * (rho - 2.0) * rho_inf / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho)
            )
            v_hat = np.sqrt(v / (1.0 - beta2**t))
            theta = theta - lr * r * m_hat / (v_hat + eps)
        else:
            theta = theta - lr * m_hat
        trajectory.append(theta.copy())
    return trajectory


class TestRAdam:
    @pytest.mark.parametrize("beta2", [0.999, 0.9])
    def test_matches_reference_trajectory(self, beta2):
        theta = small_tree().vector
        rng = Rng(400)
        grad_seq = [rng.uniform(-1, 1, theta.size) for _ in range(12)]
        reference = radam_reference(theta, grad_seq, 0.05, 0.9, beta2, 1e-8)

        state = radam_init(theta, lr=0.05, beta2=beta2)
        for g, ref in zip(grad_seq, reference):
            radam_step(state, theta, g)
            assert np.max(np.abs(theta - ref)) < 1e-12

    def test_warmup_boundary_at_beta2_default(self):
        # With beta2 = 0.999 the rectifier stays off through step 4 and
        # switches on at step 5.
        for t in (1, 2, 3, 4):
            assert rectification_term(t, 0.999) is None
        assert rectification_term(5, 0.999) is not None

    def test_first_step_is_pure_momentum(self):
        params = small_tree()
        theta0 = flatten(params)
        g = Rng(401).uniform(-1, 1, theta0.size)
        state = radam_init(params.vector, lr=0.1)
        radam_step(state, params.vector, g)
        # The update lands in the model's arrays, which view the vector.
        assert np.allclose(flatten(params), theta0 - 0.1 * g, rtol=1e-14, atol=0)

    def test_zero_gradient_is_a_no_op_on_params(self):
        theta = small_tree().vector
        theta0 = theta.copy()
        state = radam_init(theta, lr=0.1)
        radam_step(state, theta, np.zeros(theta.size))
        assert np.array_equal(theta, theta0)
        assert state.step == 1
        assert np.all(state.m == 0.0) and np.all(state.v == 0.0)

    def test_non_finite_gradient_leaves_state_untouched(self):
        theta = small_tree().vector
        state = radam_init(theta, lr=0.1)
        radam_step(state, theta, Rng(402).uniform(-1, 1, theta.size))
        m_before = state.m.copy()
        v_before = state.v.copy()
        theta_before = theta.copy()

        bad = np.ones(theta.size)
        bad[3] = np.nan
        with pytest.raises(DivergenceError):
            radam_step(state, theta, bad)
        assert state.step == 1
        assert np.array_equal(state.m, m_before)
        assert np.array_equal(state.v, v_before)
        assert np.array_equal(theta, theta_before)

        bad[3] = np.inf
        with pytest.raises(DivergenceError):
            radam_step(state, theta, bad)
        assert state.step == 1


class TestClip:
    def test_below_threshold_unchanged(self):
        grads = small_tree()
        before = grads.vector.copy()
        norm = clip_global_norm(grads, max_norm=1e9)
        assert norm == pytest.approx(float(np.linalg.norm(before)), rel=1e-12)
        assert np.array_equal(grads.vector, before)

    def test_above_threshold_scaled_to_max(self):
        grads = small_tree()
        before = grads.vector.copy()
        target = 0.25 * float(np.linalg.norm(before))
        returned = clip_global_norm(grads, max_norm=target)
        assert returned == pytest.approx(float(np.linalg.norm(before)), rel=1e-12)
        assert float(np.linalg.norm(grads.vector)) == pytest.approx(target, rel=1e-12)
        # Direction preserved: scaled vector is parallel to the original.
        after = flatten(grads)
        assert np.allclose(after / target, before / returned, rtol=1e-10, atol=1e-15)

    def test_zero_max_norm_disables(self):
        grads = small_tree()
        before = grads.vector.copy()
        clip_global_norm(grads, max_norm=0.0)
        assert np.array_equal(grads.vector, before)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("tied", [True, False])
    def test_norm_sums_leaf_by_leaf(self, layers, tied):
        # The norm adds one sum of squares per array of each layer, in the
        # order of the vector, which fixes its last bits: e_in, b_out, each
        # layer's arrays layer after layer, then e_out_untied.  Summing each
        # stacked (L, ...) array whole, or the layers array by array, gives
        # other bits on some of these gradients.
        config = ModelConfig(
            layers=layers, state_size=6, vocab_size=7, mogrifier_rounds=3, t_max=4.0,
            tie_embeddings=tied,
        )
        params = model.init_model_params(Rng(42), config)
        for seed in range(8):
            tokens = Rng(seed).integers(0, config.vocab_size, (2, 5))
            window = model.WindowBatch(inputs=tokens[:, :-1], targets=tokens[:, 1:])
            _, grads, _ = model.loss_multisample(params, config, window, Rng(43), 1)
            total = 0.0
            for arr in (grads.e_in, grads.b_out):
                total += float(np.sum(np.asarray(arr, dtype=np.float64) ** 2))
            for l in range(layers):
                for _, arr in named_arrays(grads.layers):
                    total += float(np.sum(np.asarray(arr[l], dtype=np.float64) ** 2))
            if not tied:
                total += float(np.sum(grads.e_out_untied**2))
            assert clip_global_norm(grads, max_norm=0.0) == float(np.sqrt(total))


class TestTailAveraging:
    def test_running_means_match_brute_force(self):
        theta = small_tree().vector
        state = tta_init(theta)
        rng = Rng(410)
        seen = []
        for _ in range(7):
            theta[...] = rng.uniform(-1, 1, theta.size)
            seen.append(theta.copy())
            tta_update(state, theta)
        stack = np.stack(seen)
        assert np.allclose(state.long.mean, stack.mean(axis=0), atol=1e-14)
        assert np.allclose(state.short.mean, stack.mean(axis=0), atol=1e-14)
        assert state.long.count == state.short.count == 7
        assert state.step == 7

    def test_swap_promotes_improving_short_tail(self):
        theta = small_tree().vector
        size = theta.size
        target = np.ones(size)
        state = tta_init(theta)
        # Early iterates far from the target, later ones close: make the two
        # tails differ by swapping once in between.
        iterates = [np.full(size, 10.0), np.full(size, 8.0), np.full(size, 0.9), target.copy()]
        loss = lambda w: float(np.sum((w - target) ** 2))

        for w in iterates[:2]:
            tta_update(state, w)
        tta_evaluate_and_swap(state, loss)  # equal tails: promote + reset short
        assert state.short.count == 0 and state.short.start == 2
        for w in iterates[2:]:
            tta_update(state, w)

        # short now averages the last two iterates only; long all four.
        assert np.allclose(state.short.mean, np.stack(iterates[2:]).mean(axis=0), atol=1e-14)
        assert np.allclose(state.long.mean, np.stack(iterates).mean(axis=0), atol=1e-14)

        best, best_loss, state = tta_evaluate_and_swap(state, loss)
        expect_short = np.stack(iterates[2:]).mean(axis=0)
        assert np.allclose(best, expect_short, atol=1e-14)
        assert best_loss == pytest.approx(loss(expect_short), rel=1e-12)
        # Promotion: long inherits the short tail, short restarts empty.
        assert np.allclose(state.long.mean, expect_short, atol=1e-14)
        assert state.long.start == 2 and state.long.count == 2
        assert state.short.count == 0 and state.short.start == 4
        assert np.all(state.short.mean == 0.0)

    def test_worse_short_tail_keeps_long(self):
        size = small_tree().vector.size
        target = np.zeros(size)
        state = tta_init(target)
        loss = lambda w: float(np.sum((w - target) ** 2))
        tta_update(state, np.zeros(size))
        tta_evaluate_and_swap(state, loss)
        # Post-swap iterates drift away from the target: short is worse.
        for value in (5.0, 7.0):
            tta_update(state, np.full(size, value))
        best, best_loss, state = tta_evaluate_and_swap(state, loss)
        long_before_mean = state.long.mean.copy()
        assert best_loss == pytest.approx(loss(state.long.mean), rel=1e-12)
        assert np.allclose(best, long_before_mean, atol=1e-14)
        # No promotion: the short tail keeps accumulating.
        assert state.short.count == 2

    def test_tie_counts_as_swap(self):
        theta = small_tree().vector
        state = tta_init(theta)
        tta_update(state, theta)
        _, _, state = tta_evaluate_and_swap(state, lambda w: 1.0)
        assert state.short.count == 0 and state.long.count == 1

    def test_empty_tail_rejected(self):
        theta = small_tree().vector
        state = tta_init(theta)
        with pytest.raises(ValueError):
            tta_evaluate_and_swap(state, lambda w: 0.0)
        tta_update(state, theta)
        _, _, state = tta_evaluate_and_swap(state, lambda w: 0.0)
        with pytest.raises(ValueError):
            tta_evaluate_and_swap(state, lambda w: 0.0)

    def test_averaging_beats_last_iterate_on_noisy_sequence(self):
        # Iterates hover around an optimum with persistent noise; the tail
        # mean lands closer to the optimum than any single late iterate.
        size = 20
        target = np.linspace(-1, 1, size)
        rng = Rng(411)
        params = small_tree()
        state = TtaState(
            long=Tail(np.zeros(size), 0, 0), short=Tail(np.zeros(size), 0, 0), step=0
        )
        last = None
        for _ in range(64):
            last = target + 0.5 * rng.uniform(-1, 1, size)
            state.step += 1
            for tail in (state.long, state.short):
                tail.count += 1
                tail.mean += (last - tail.mean) / tail.count
        dist_mean = np.linalg.norm(state.long.mean - target)
        dist_last = np.linalg.norm(last - target)
        assert dist_mean < dist_last


def pattern_stream(length, period=4):
    return np.arange(length) % period


def tiny_train_config(**overrides):
    base = dict(layers=1, state_size=8, vocab_size=4, cell="rlstm", mogrifier_rounds=2)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_train_opts(**overrides):
    base = dict(
        lr=5e-3,
        batch_size=2,
        window=4,
        epochs=1,
        val_batch_size=2,
        val_window=8,
    )
    base.update(overrides)
    return TrainOptions(**base)


class TestTrainLoop:
    def test_same_seed_bitwise_identical(self):
        def run():
            result = train(
                tiny_train_config(),
                tiny_train_opts(epochs=2, val_interval=5),
                pattern_stream(120),
                pattern_stream(40),
                Rng(500),
            )
            return flatten(result.params), result.metrics_lines, result.best_val_nats

        p1, lines1, best1 = run()
        p2, lines2, best2 = run()
        assert np.array_equal(p1, p2)
        assert lines1 == lines2
        assert best1 == best2

    def test_learns_predictable_stream(self):
        result = train(
            tiny_train_config(),
            tiny_train_opts(epochs=6, lr=1e-2),
            pattern_stream(240),
            pattern_stream(80),
            Rng(501),
        )
        assert result.best_val_nats < np.log(4)
        assert result.stop_reason == "completed"
        assert result.steps > 0

    def test_metrics_line_format(self):
        result = train(
            tiny_train_config(),
            tiny_train_opts(epochs=1, val_interval=4),
            pattern_stream(80),
            pattern_stream(40),
            Rng(502),
        )
        val_lines = [l for l in result.metrics_lines if l.startswith("event=val ")]
        assert val_lines
        pattern = re.compile(
            r"^event=val step=(\d+) epoch=(\d+) train_nats=(\S+) val_nats=(\S+) "
            r"tta_nats=(\S+) lr=(\S+) restarts=(\d+)$"
        )
        for line in val_lines:
            match = pattern.match(line)
            assert match is not None, line
            # repr round-trips: every float field parses back.
            for idx in (3, 4, 5, 6):
                float(match.group(idx))

    def test_nan_loss_restores_best_bitwise_and_decays_lr(self):
        opts = tiny_train_opts(epochs=1, val_interval=3, lr=4e-3)
        # Stream sized for exactly 6 windows per epoch at window=4, batch=2:
        # rows length 26, (26 - 2) // 4 + 1 = 7 windows.
        stream = pattern_stream(52)

        def hook(step, loss):
            return float("nan") if step == 7 else loss

        result = train(
            tiny_train_config(),
            opts,
            stream,
            pattern_stream(40),
            Rng(503),
            loss_hook=hook,
        )
        assert result.restarts == 1
        restart_lines = [l for l in result.metrics_lines if l.startswith("event=restart ")]
        assert len(restart_lines) == 1 and "step=7" in restart_lines[0]
        assert result.radam.lr == pytest.approx(0.9 * 4e-3, rel=1e-15)
        # Step 7 was the last window, so the parameters at exit are exactly
        # the restored best snapshot.
        assert np.array_equal(flatten(result.params), result.best.params.vector)
        # Re-validating the restored weights reproduces the recorded best.
        final_val = [l for l in result.metrics_lines if " event=val" in l or l.startswith("event=val ")][-1]
        recorded = float(re.search(r"val_nats=(\S+)", final_val).group(1))
        assert recorded == result.best_val_nats

    def test_the_best_state_is_never_aliased(self, monkeypatch):
        # The step-3 validation records the best state.  Steps 4 and 6
        # diverge, and the restart at step 6 skips its validation, so both
        # restarts restore the same record: steps 5 and 7 begin from the same
        # bytes, though step 5 updated the parameters, moments and tails.
        step_now = []
        begun = {}
        update, fold = training.radam_step, training.tta_update

        def recording_update(state, theta, g):
            begun[step_now[-1]] = [theta.tobytes(), state.m.tobytes(), state.v.tobytes(), state.step]
            update(state, theta, g)

        def recording_fold(state, theta):
            begun[step_now[-1]] += [state.long.mean.tobytes(), state.short.mean.tobytes()]
            return fold(state, theta)

        def hook(step, loss):
            step_now.append(step)
            return float("nan") if step in (4, 6) else loss

        monkeypatch.setattr(training, "radam_step", recording_update)
        monkeypatch.setattr(training, "tta_update", recording_fold)
        result = train(
            tiny_train_config(),
            tiny_train_opts(epochs=1, val_interval=3),
            pattern_stream(52),
            pattern_stream(40),
            Rng(512),
            loss_hook=hook,
        )
        assert result.restarts == 2
        assert begun[5] == begun[7] and begun[5] != begun[3]

        best = result.best
        kept = [a.copy() for a in (best.params.vector, best.radam.m, best.tta.long.mean)]
        result.params.vector[...] += 1.0
        result.radam.m[...] += 1.0
        result.tta.long.mean[...] += 1.0
        kept_now = (best.params.vector, best.radam.m, best.tta.long.mean)
        assert all(np.array_equal(a, b) for a, b in zip(kept, kept_now, strict=True))

    def test_restart_keeps_drawing_fresh_masks(self):
        # A restart restores the best snapshot (taken at the step-3
        # validation) but not its rng state: the masks after it are new
        # draws.  Rewinding would make step 6 draw step 4's masks again and
        # leave the rng where step 4 left it.
        rng = Rng(503)
        states = {}

        def hook(step, loss):
            states[step] = repr(rng.state())
            return float("nan") if step == 5 else loss

        result = train(
            tiny_train_config(keep_in=0.8, keep_cell=0.8, keep_state=0.8, keep_out=0.8),
            tiny_train_opts(epochs=1, val_interval=3),
            pattern_stream(52),
            pattern_stream(40),
            rng,
            loss_hook=hook,
        )
        assert result.restarts == 1
        assert sorted(states) == list(range(1, 8))
        assert len(set(states.values())) == len(states)

    def test_parameters_view_one_vector(self):
        result = train(
            tiny_train_config(),
            tiny_train_opts(epochs=1, val_interval=3),
            pattern_stream(52),
            pattern_stream(40),
            Rng(510),
        )
        vector = result.params.vector
        assert all(np.shares_memory(arr, vector) for _, arr in named_arrays(result.params))
        assert np.array_equal(flatten(result.params), vector)

    def test_loss_spike_above_divergence_factor_restarts(self):
        def hook(step, loss):
            return 1e6 if step == 4 else loss

        result = train(
            tiny_train_config(),
            tiny_train_opts(epochs=1, val_interval=3),
            pattern_stream(80),
            pattern_stream(40),
            Rng(504),
            loss_hook=hook,
        )
        assert result.restarts == 1
        cause = [l for l in result.metrics_lines if l.startswith("event=restart ")][0]
        assert "above" in cause

    def test_non_finite_parameters_restart_with_the_cell_cause(self, monkeypatch):
        # A NaN written into one cell bias after the first update makes the
        # second window's forward pass diverge; its cause is logged verbatim.
        config = tiny_train_config()
        update = training.radam_step
        poisoned = []

        def poisoning_update(state, theta, g):
            update(state, theta, g)
            if not poisoned:
                poisoned.append(True)
                model.empty_model_params(config, theta).layers.cell.b[0, 0] = np.nan

        monkeypatch.setattr(training, "radam_step", poisoning_update)
        result = train(
            config,
            tiny_train_opts(epochs=1, val_interval=3),
            pattern_stream(52),
            pattern_stream(40),
            Rng(506),
        )
        assert result.restarts == 1
        restart_lines = [l for l in result.metrics_lines if l.startswith("event=restart ")]
        assert len(restart_lines) == 1
        assert restart_lines[0].startswith("event=restart step=2 ")
        assert " cause='non-finite cell activations' " in restart_lines[0]

    def test_repeated_divergence_raises(self):
        def hook(step, loss):
            return float("nan")

        with pytest.raises(TrainingDiverged, match="diverged 3 times"):
            train(
                tiny_train_config(),
                tiny_train_opts(max_restarts=2),
                pattern_stream(80),
                pattern_stream(40),
                Rng(505),
                loss_hook=hook,
            )

    def test_target_val_stops_early(self):
        result = train(
            tiny_train_config(),
            tiny_train_opts(epochs=50, val_interval=2, target_val_nats=10.0),
            pattern_stream(80),
            pattern_stream(40),
            Rng(506),
        )
        assert result.stop_reason == "early_stop"
        assert result.steps == 2

    def test_patience_stops_when_no_improvement(self):
        # A step too small to move any weight in float64 freezes validation
        # loss, so the second validation trips patience=1.
        result = train(
            tiny_train_config(),
            tiny_train_opts(epochs=50, val_interval=2, lr=1e-30, patience=1),
            pattern_stream(80),
            pattern_stream(40),
            Rng(507),
        )
        assert result.stop_reason == "early_stop"
        assert result.steps == 4

    def test_time_budget_stops(self):
        result = train(
            tiny_train_config(),
            tiny_train_opts(epochs=1000, max_train_seconds=1e-9),
            pattern_stream(80),
            pattern_stream(40),
            Rng(508),
        )
        assert result.stop_reason == "time_budget"
        assert result.steps == 1
        # The interrupted run still reports a final validation.
        assert any(l.startswith("event=val ") for l in result.metrics_lines)

    def test_stream_too_short(self):
        # Three tokens split over two rows leave single-column rows: no
        # window has both an input and a target.
        with pytest.raises(ValueError, match="too short"):
            train(
                tiny_train_config(),
                tiny_train_opts(),
                pattern_stream(3),
                pattern_stream(8),
                Rng(509),
            )

    def test_valid_stream_without_a_target_per_row_refused_before_training(self):
        # Six tokens over four validation rows leave one-token rows: no
        # validation could score a token.
        rng = Rng(2)
        before = rng.state()
        with pytest.raises(ValueError, match="validation stream has 6 tokens; batch size 4"):
            train(
                ModelConfig(layers=1, state_size=4, vocab_size=4, mogrifier_rounds=1),
                TrainOptions(batch_size=2, window=4, val_batch_size=4, val_window=4),
                pattern_stream(40),
                pattern_stream(6),
                rng,
            )
        assert rng.state() == before  # refused before the first draw

    def test_options_validation(self):
        with pytest.raises(ValueError):
            TrainOptions(lr=0.0).validate()
        with pytest.raises(ValueError):
            TrainOptions(epochs=0).validate()
        with pytest.raises(ValueError):
            TrainOptions(divergence_factor=1.0).validate()
        with pytest.raises(ValueError):
            TrainOptions(max_restarts=-1).validate()


class TestFloat32:
    def test_trains_and_checkpoints_in_float32(self, tmp_path):
        # The parameters and gradients are float32, the optimizer moments,
        # the tails and the checkpoint payload float64.
        def run(dtype):
            return train(
                tiny_train_config(dtype=dtype, keep_in=0.9, keep_out=0.9),
                tiny_train_opts(epochs=2, val_interval=3),
                pattern_stream(52),
                pattern_stream(40),
                Rng(511),
            )

        single = run("float32")
        double = run("float64")
        vector = single.params.vector
        assert vector.dtype == np.float32
        for _, arr in named_arrays(single.params):
            assert arr.dtype == np.float32 and np.shares_memory(arr, vector)
        assert single.radam.m.dtype == single.tta.long.mean.dtype == np.float64
        assert single.best_val_nats == pytest.approx(double.best_val_nats, rel=1e-6)

        checkpoint.save_checkpoint(tmp_path / "f32.ckpt", single.best)
        loaded = checkpoint.load_checkpoint(tmp_path / "f32.ckpt")
        assert loaded.params.vector.dtype == np.float32
        assert loaded.params.vector.tobytes() == single.best.params.vector.tobytes()
