"""Release gate: eleven end-to-end checks over the whole laboratory.

Each check prints one summary line with the measured values and the pinned
tolerance, bypassing pytest's capture so the lines show up in ordinary runs,
then asserts.  The heavyweight checks (bounded-state sweep, desk-scale
training, the five-seed dynamic-evaluation study) switch the matmul kernel
to the BLAS-backed path for speed and restore the deterministic default
afterwards.
"""

import math
import shutil
import time

import numpy as np
import pytest

from rnnlab import cells, cli, corpus, evaluation, gradcheck, model, numerics, training
from rnnlab import checkpoint as ckpt_mod
from rnnlab import data as data_mod
from rnnlab.evaluation import convert_metrics
from rnnlab.model import ModelConfig, WindowBatch
from rnnlab.numerics import Rng
from rnnlab.ptree import flatten

LN2 = math.log(2.0)


def announce(capsys, number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nacceptance {number:02d} {name}: {status} ({detail})", flush=True)


@pytest.fixture
def fast_gemm():
    previous = numerics.fast_gemm_enabled()
    numerics.set_fast_gemm(True)
    yield
    numerics.set_fast_gemm(previous)


# --- 1: analytic gradients against central finite differences ---------------


def test_01_gradient_suite(capsys):
    t0 = time.perf_counter()
    results = gradcheck.gradient_check_suite()
    elapsed = time.perf_counter() - t0
    worst_name, worst = max(results, key=lambda item: item[1])
    ok = worst < 1e-5 and elapsed < 120.0
    announce(
        capsys, 1, "gradient-suite", ok,
        f"{len(results)} components, worst {worst_name} rel_err={worst:.3e} "
        f"(tol 1e-05), {elapsed:.1f}s (limit 120s)",
    )
    assert worst < 1e-5, f"{worst_name} gradient error {worst}"
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"


# --- 2: cell state stays inside the unit box --------------------------------


def _worst_cell_magnitude(kind, draws, steps, rng):
    worst = 0.0
    for _ in range(draws):
        m = int(rng.integers(3, 9))
        n = int(rng.integers(3, 9))
        params = cells.init_cell_params(rng, m, n, kind, t_max=20.0)
        for value in vars(params).values():
            if isinstance(value, np.ndarray):
                value[:] = rng.uniform(-2.0, 2.0, value.shape)
        state = cells.CellState(
            h=np.tanh(rng.uniform(-2.0, 2.0, (1, n))),
            c=rng.uniform(-1.0, 1.0, (1, n)),
        )
        scale = rng.uniform(0.5, 6.0)
        xs = rng.uniform(-scale, scale, (steps, 1, m))
        cache = cells.new_cache(kind, (1,), m, n)  # one step's, reused at every step
        cache.c[...] = state.c
        cache.c_prev = state.c = cache.c  # updated in place, as a scoring pass updates it
        weights = cells.forward_weights(params)  # of the weights as set above
        step, work = getattr(cells, f"{kind}_forward"), cells.new_work(kind, (1,), n)
        for t in range(steps):
            np.concatenate((xs[t], state.h), axis=-1, out=cache.xh)
            step(weights, cache, state.h, work)
            # the steps do not check finiteness, so this loop does: a NaN
            # would slip through the running max below
            assert np.all(np.isfinite(state.c)) and np.all(np.isfinite(state.h)), (
                f"non-finite {kind} state at step {t}"
            )
            worst = max(worst, float(np.max(np.abs(state.c))))
    return worst


def test_02_bounded_state(capsys, fast_gemm):
    draws, steps = 50, 10_000
    rng = Rng(20240)
    worst_rlstm = _worst_cell_magnitude("rlstm", draws, steps, rng)
    worst_lstm = _worst_cell_magnitude("lstm", draws, steps, rng)
    ok = worst_rlstm <= 1.0 and worst_lstm <= 1.0
    announce(
        capsys, 2, "bounded-state", ok,
        f"{draws} parameter draws x {steps} steps: max |c| rlstm "
        f"{worst_rlstm:.12f}, capped lstm {worst_lstm:.12f} (bound 1.0 exactly, "
        f"zero violations)",
    )
    assert worst_rlstm <= 1.0
    assert worst_lstm <= 1.0


# --- 3: probability-averaged objective over dropout samples -----------------


def test_03_multisample_objective(capsys, fast_gemm):
    rng = Rng(77)
    config = ModelConfig(
        layers=2, state_size=8, vocab_size=6, cell="rlstm", mogrifier_rounds=2,
        keep_in=0.6, keep_cell=0.6, keep_state=0.6, keep_out=0.6, t_max=6.0,
    )
    bsz, horizon = 2, 6
    rows = np.arange(bsz)[:, None]
    cols = np.arange(horizon)[None, :]

    # One dropout sample must reduce to the plain objective bit for bit.
    params = model.init_model_params(rng, config)
    inputs = rng.integers(0, config.vocab_size, (bsz, horizon))
    targets = rng.integers(0, config.vocab_size, (bsz, horizon))
    masks = model.sample_masks(rng, config, bsz, horizon)
    log_probs, cache, _ = model.forward_window(params, config, inputs, masks, None)
    loss_single, grad_lp = model.nll_from_log_probs(log_probs, targets)
    grads_single = model.backward_window(params, config, cache, grad_lp)
    batch = WindowBatch(inputs=inputs, targets=targets, states=None)
    loss_multi, grads_multi, _ = model.window_loss_with_masks(params, config, batch, [masks])
    exact = loss_multi == loss_single and np.array_equal(
        flatten(grads_multi), flatten(grads_single)
    )

    # Averaging probabilities keeps every token's mixed log-probability inside
    # the per-sample envelope.  The envelope holds token by token; totals can
    # legitimately escape it, so the check is pointwise.
    violations = 0
    batches = 0
    worst_slack = math.inf
    for num_samples in (2, 4, 8):
        for _ in range(100):
            params = model.init_model_params(rng, config)
            inputs = rng.integers(0, config.vocab_size, (bsz, horizon))
            targets = rng.integers(0, config.vocab_size, (bsz, horizon))
            picked = []
            for _ in range(num_samples):
                sample = model.sample_masks(rng, config, bsz, horizon)
                lp, _, _ = model.forward_window(params, config, inputs, sample, None)
                picked.append(lp[rows, cols, targets])
            picked = np.stack(picked)
            mixed = model.mix_sample_log_probs(picked)
            lo = picked.min(axis=0)
            hi = picked.max(axis=0)
            violations += int(np.sum((mixed < lo - 1e-12) | (mixed > hi + 1e-12)))
            worst_slack = min(
                worst_slack, float(np.min(mixed - lo)), float(np.min(hi - mixed))
            )
            batches += 1
    ok = exact and violations == 0
    announce(
        capsys, 3, "multi-sample-objective", ok,
        f"single sample bitwise equal={exact}; {batches} random batches over "
        f"D in (2,4,8): {violations} envelope violations (tol 1e-12, worst "
        f"slack {worst_slack:.2e})",
    )
    assert exact
    assert violations == 0


# --- 4: two-tail averaging equals brute force and helps on a noisy quadratic


def test_04_tail_averaging(capsys):
    rng = Rng(4242)
    dim = 32
    target = rng.uniform(-1.0, 1.0, dim)
    w = rng.uniform(-1.0, 1.0, dim)
    state = training.tta_init(w)
    iterates = []
    worst_gap = 0.0
    for step in range(1, 1001):
        w = w + 0.05 * (target - w) + rng.uniform(-0.05, 0.05, dim)
        iterates.append(w.copy())
        training.tta_update(state, w)
        for tail in (state.long, state.short):
            if tail.count:
                brute = np.mean(iterates[tail.start:], axis=0)
                worst_gap = max(worst_gap, float(np.max(np.abs(tail.mean - brute))))
        if step % 100 == 0:
            training.tta_evaluate_and_swap(
                state, lambda vec: float(np.sum((vec - target) ** 2))
            )

    # SGD on f(w) = w^2 with uniform gradient noise: the averaged weight
    # should score at least as well as the raw iterate it summarizes.  The
    # step size keeps the raw iterate bouncing well above the noise floor
    # of the tail means.
    w = 1.0
    quad = training.tta_init(np.array([w]))
    for step in range(1, 501):
        grad = 2.0 * w + rng.uniform(-1.0, 1.0)
        w = w - 0.2 * grad
        training.tta_update(quad, np.array([w]))
        if step % 100 == 0 and step < 500:
            training.tta_evaluate_and_swap(quad, lambda vec: float(vec[0] ** 2))
    _, averaged_loss, _ = training.tta_evaluate_and_swap(
        quad, lambda vec: float(vec[0] ** 2)
    )
    raw_loss = w**2
    quad_ok = averaged_loss <= raw_loss
    ok = worst_gap < 1e-12 and quad_ok
    announce(
        capsys, 4, "tail-averaging", ok,
        f"running means vs brute force over 1000 steps: max gap {worst_gap:.2e} "
        f"(tol 1e-12); noisy quadratic at step 500: averaged {averaged_loss:.6f} "
        f"<= raw {raw_loss:.6f}",
    )
    assert worst_gap < 1e-12
    assert quad_ok


# --- 5: rectified Adam switches off the variance term during warmup ---------


def test_05_radam_warmup_boundary(capsys):
    beta1, beta2, lr, eps = 0.9, 0.999, 1e-3, 1e-8
    rho_inf = 2.0 / (1.0 - beta2) - 1.0

    def reference_rectifier(step):
        rho = rho_inf - 2.0 * step * beta2**step / (1.0 - beta2**step)
        if rho <= 4.0:
            return None
        return math.sqrt(
            ((rho - 4.0) * (rho - 2.0) * rho_inf)
            / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho)
        )

    gates = [(t, reference_rectifier(t), training.rectification_term(t, beta2))
             for t in range(1, 7)]
    boundary_ok = all((got is None) == (want is None) for _, want, got in gates)
    momentum_only = [t for t, want, _ in gates if want is None]
    first_rectified = min(t for t, want, _ in gates if want is not None)
    value_gap = max(
        abs(got - want) for _, want, got in gates if want is not None
    )

    # Replay five updates against an independently coded trajectory.
    params = np.array([0.5, -0.3, 0.2])
    state = training.radam_init(params, lr, beta1, beta2, eps)
    theta = params.copy()
    m = np.zeros(3)
    v = np.zeros(3)
    drift = 0.0
    for t in range(1, 6):
        grad = np.array([0.3, -0.7, 1.1]) * t
        training.radam_step(state, params, grad)
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad * grad
        m_hat = m / (1.0 - beta1**t)
        rect = reference_rectifier(t)
        if rect is None:
            theta = theta - lr * m_hat
        else:
            v_hat = np.sqrt(v / (1.0 - beta2**t))
            theta = theta - lr * rect * m_hat / (v_hat + eps)
        drift = max(drift, float(np.max(np.abs(params - theta))))

    ok = (
        boundary_ok
        and momentum_only == [1, 2, 3, 4]
        and first_rectified == 5
        and value_gap < 1e-12
        and drift < 1e-12
    )
    announce(
        capsys, 5, "radam-warmup-boundary", ok,
        f"beta2=0.999: momentum-only steps {momentum_only} (expected [1, 2, 3, 4]), "
        f"first rectified step {first_rectified} (expected 5, exact); rectifier "
        f"gap {value_gap:.2e}, 5-step trajectory drift {drift:.2e} (tol 1e-12)",
    )
    assert boundary_ok
    assert momentum_only == [1, 2, 3, 4]
    assert first_rectified == 5
    assert value_gap < 1e-12
    assert drift < 1e-12


# --- 6: divergence restores the best snapshot and decays the learning rate --


def test_06_divergence_restart(capsys):
    config = ModelConfig(
        layers=1, state_size=8, vocab_size=4, cell="rlstm", mogrifier_rounds=2,
        t_max=6.0,
    )
    lr0 = 4e-3
    opts = training.TrainOptions(
        lr=lr0, epochs=1, batch_size=2, window=4, val_interval=3,
        val_batch_size=2, val_window=8,
    )
    stream = np.arange(56) % 4  # two rows of 28 columns -> exactly 7 windows
    result = training.train(
        config, opts, stream, stream[:20], Rng(9),
        loss_hook=lambda step, loss: float("nan") if step == 7 else loss,
    )
    best = result.best
    params_ok = np.array_equal(flatten(result.params), best.params.vector)
    m_ok = np.array_equal(result.radam.m, best.radam.m)
    v_ok = np.array_equal(result.radam.v, best.radam.v)
    step_ok = result.radam.step == best.radam.step
    lr_ok = result.radam.lr == lr0 * 0.9
    ok = result.restarts == 1 and params_ok and m_ok and v_ok and step_ok and lr_ok
    announce(
        capsys, 6, "divergence-restart", ok,
        f"restarts={result.restarts} (expected 1); params bit-identical="
        f"{params_ok}, optimizer m/v/step bit-identical={m_ok and v_ok and step_ok}; "
        f"lr {lr0} -> {result.radam.lr} (expected exactly {lr0 * 0.9})",
    )
    assert result.restarts == 1
    assert params_ok
    assert m_ok and v_ok and step_ok
    assert lr_ok


# --- 7: desk-scale byte-level training reaches the target compression -------


@pytest.fixture(scope="module")
def desk_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    paths = corpus.write_splits(root, total_bytes=1_000_000, seed=7)
    vocab, streams = data_mod.load_splits(
        paths["train"], paths["valid"], paths["test"], "byte"
    )
    return vocab, streams


def _desk_train(cell, stop_bpc, vocab, streams):
    config = ModelConfig(
        layers=2, state_size=128, vocab_size=vocab.size, cell=cell,
        mogrifier_rounds=4,
    )
    opts = training.TrainOptions(
        lr=3e-3, epochs=40, batch_size=32, window=128, val_interval=100,
        target_val_nats=stop_bpc * LN2, max_train_seconds=1500.0,
        val_batch_size=16, val_window=128,
    )
    t0 = time.perf_counter()
    result = training.train(config, opts, streams["train"], streams["valid"], Rng(1))
    return result.best_val_nats / LN2, time.perf_counter() - t0, result


@pytest.mark.slow
def test_07_desk_scale_training(capsys, fast_gemm, desk_corpus):
    vocab, streams = desk_corpus
    bpc_rlstm, sec_rlstm, _ = _desk_train("rlstm", 2.4, vocab, streams)
    bpc_lstm, sec_lstm, _ = _desk_train("lstm", 2.5, vocab, streams)
    ok = (
        bpc_rlstm <= 2.5 and sec_rlstm < 1800.0
        and bpc_lstm <= 2.6 and sec_lstm < 1800.0
    )
    announce(
        capsys, 7, "desk-scale-training", ok,
        f"1 MB bytes, 2x128, 4 rounds, batch 32, window 128: rlstm val "
        f"{bpc_rlstm:.3f} bpc in {sec_rlstm:.0f}s (limits 2.5 bpc, 1800s); "
        f"lstm val {bpc_lstm:.3f} bpc in {sec_lstm:.0f}s (limits 2.6 bpc, 1800s)",
    )
    assert bpc_rlstm <= 2.5 and sec_rlstm < 1800.0
    assert bpc_lstm <= 2.6 and sec_lstm < 1800.0


# --- 8: tuned dynamic evaluation never hurts and helps across a domain shift


@pytest.fixture(scope="module")
def two_domain_lab(tmp_path_factory):
    root = tmp_path_factory.mktemp("two_domain")
    paths = corpus.write_splits(root, total_bytes=120_000, seed=7, eval_two_domain=True)
    vocab, streams = data_mod.load_splits(
        paths["train"], paths["valid"], paths["test"], "byte"
    )
    cache = {}

    def model_for(seed):
        if seed not in cache:
            config = ModelConfig(
                layers=1, state_size=32, vocab_size=vocab.size, cell="rlstm",
                mogrifier_rounds=2,
            )
            opts = training.TrainOptions(
                lr=3e-3, epochs=2, batch_size=8, window=32, val_interval=200,
                val_batch_size=8, val_window=32,
            )
            result = training.train(
                config, opts, streams["train"], streams["valid"], Rng(seed)
            )
            cache[seed] = (config, result.params)
        return cache[seed]

    return vocab, streams, model_for


def test_08_dynamic_evaluation(capsys, fast_gemm, two_domain_lab):
    _, streams, model_for = two_domain_lab
    valid = streams["valid"][:3000]
    test = streams["test"][:3000]
    grid = evaluation.default_dyneval_grid(segment=50)
    assert grid[0].lr == 0.0  # tuning can always fall back to no adaptation
    never_worse = True
    wins = 0
    rows = []
    for seed in range(1, 6):
        config, params = model_for(seed)
        static_valid = evaluation.evaluate_static(
            params, config, valid, batch_size=1, window=50
        )
        best_cfg, tuned_valid_nats = evaluation.tune_dyneval(params, config, valid, grid)
        never_worse &= tuned_valid_nats <= static_valid.nats_per_token
        static_test = evaluation.evaluate_static(
            params, config, test, batch_size=1, window=50
        )
        dynamic_test = evaluation.evaluate_dynamic(params, config, test, best_cfg)
        improved = dynamic_test.bpc < static_test.bpc
        wins += improved
        rows.append(f"seed {seed} {static_test.bpc:.4f}->{dynamic_test.bpc:.4f}")
    ok = never_worse and wins >= 4
    announce(
        capsys, 8, "dynamic-evaluation", ok,
        f"tuned valid <= static valid on all seeds={never_worse} (exact); "
        f"two-domain test improved on {wins}/5 seeds (need >= 4): " + ", ".join(rows),
    )
    assert never_worse
    assert wins >= 4


# --- 9: softmax temperature tuning is an exact grid argmax ------------------


def test_09_temperature_tuning(capsys, fast_gemm, two_domain_lab):
    _, streams, model_for = two_domain_lab
    config, params = model_for(1)
    stream = streams["valid"][:1500]
    grid = evaluation.default_temperature_grid()
    sweep = evaluation.temperature_sweep(
        params, config, stream, grid, batch_size=2, window=64
    )
    tuned = evaluation.tune_temperature(
        params, config, stream, grid, batch_size=2, window=64
    )
    by_temp = dict(sweep)
    best_nats = min(nats for _, nats in sweep)
    contenders = sorted(
        (temp for temp, nats in sweep if nats == best_nats),
        key=lambda t: (abs(t - 1.0), t),
    )
    argmax_ok = tuned == contenders[0] and by_temp[tuned] == best_nats
    improves = by_temp[tuned] <= by_temp[1.0]
    ok = argmax_ok and improves
    announce(
        capsys, 9, "temperature-tuning", ok,
        f"tuned T={tuned} is the exact grid argmax={argmax_ok}; val nats "
        f"{by_temp[tuned]:.6f} at tuned <= {by_temp[1.0]:.6f} at T=1",
    )
    assert argmax_ok
    assert improves


# --- 10: training runs and checkpoints are reproducible ---------------------


def _write_cli_config(path, corpus_dir, run_dir):
    values = {
        "mode": "byte",
        "train_path": f"{corpus_dir}/train.txt",
        "valid_path": f"{corpus_dir}/valid.txt",
        "test_path": f"{corpus_dir}/test.txt",
        "layers": 1,
        "state_size": 24,
        "mogrifier_rounds": 2,
        "lr": 3e-3,
        "epochs": 1,
        "batch_size": 4,
        "window": 24,
        "val_batch_size": 4,
        "val_window": 24,
        "seed": 3,
        "checkpoint_path": f"{run_dir}/model.ckpt",
        "metrics_path": f"{run_dir}/metrics.log",
    }
    with open(path, "w") as fh:
        for key, value in values.items():
            fh.write(f"{key} = {value}\n")
    return path


def test_10_determinism(capsys, tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus.write_splits(corpus_dir, total_bytes=20_000, seed=11)
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    config_path = _write_cli_config(tmp_path / "run.cfg", corpus_dir, run_dir)

    assert cli.main(["train", "--config", str(config_path)]) == 0
    first_metrics = (run_dir / "metrics.log").read_bytes()
    first_checkpoint = (run_dir / "model.ckpt").read_bytes()
    shutil.rmtree(run_dir)
    run_dir.mkdir()
    assert cli.main(["train", "--config", str(config_path)]) == 0
    second_metrics = (run_dir / "metrics.log").read_bytes()
    metrics_ok = first_metrics == second_metrics
    runs_ok = first_checkpoint == (run_dir / "model.ckpt").read_bytes()

    loaded = ckpt_mod.load_checkpoint(run_dir / "model.ckpt")
    resaved = run_dir / "resaved.ckpt"
    ckpt_mod.save_checkpoint(resaved, loaded)
    roundtrip_ok = resaved.read_bytes() == (run_dir / "model.ckpt").read_bytes()

    ok = metrics_ok and runs_ok and roundtrip_ok
    announce(
        capsys, 10, "determinism", ok,
        f"same config+seed metrics logs byte-identical={metrics_ok}, "
        f"checkpoints byte-identical={runs_ok}; save/load/save round trip "
        f"byte-identical={roundtrip_ok}",
    )
    assert metrics_ok
    assert runs_ok
    assert roundtrip_ok


# --- 11: metric conversions hit the published reference points --------------


def test_11_metric_conversion(capsys):
    ppl, _ = convert_metrics(3.93124)
    _, bpc = convert_metrics(0.78415)
    ppl_gap = abs(ppl - 50.97)
    bpc_gap = abs(bpc - 1.1313)
    ok = ppl_gap < 0.01 and bpc_gap < 0.0001
    announce(
        capsys, 11, "metric-conversion", ok,
        f"exp(3.93124)={ppl:.4f} within 0.01 of 50.97 (gap {ppl_gap:.4f}); "
        f"0.78415/ln2={bpc:.6f} within 0.0001 of 1.1313 (gap {bpc_gap:.6f})",
    )
    assert ppl_gap < 0.01
    assert bpc_gap < 0.0001
