import math

import numpy as np
import pytest

from rnnlab import data, evaluation, model, numerics
from rnnlab.evaluation import (
    DynevalConfig,
    convert_metrics,
    default_dyneval_grid,
    default_temperature_grid,
    evaluate_dynamic,
    evaluate_static,
    format_report,
    make_report,
    temperature_sweep,
    tune_dyneval,
    tune_temperature,
)
from rnnlab.model import ModelConfig
from rnnlab.numerics import Rng
from rnnlab.ptree import flatten


def tiny_config(**overrides):
    base = dict(layers=1, state_size=6, vocab_size=4, mogrifier_rounds=2)
    base.update(overrides)
    return ModelConfig(**base)


def trained_ish_params(config, seed=700):
    return model.init_model_params(Rng(seed), config)


def random_stream(length, vocab, seed=701):
    return Rng(seed).integers(0, vocab, length)


class TestConversions:
    def test_known_values(self):
        ppl, bpc = convert_metrics(3.93124)
        assert ppl == pytest.approx(50.97, abs=0.005)
        assert bpc == pytest.approx(5.6716, abs=0.0005)
        ppl, bpc = convert_metrics(0.78415)
        assert ppl == pytest.approx(2.1906, abs=0.0005)
        assert bpc == pytest.approx(1.1313, abs=0.0005)
        ppl, bpc = convert_metrics(3.80708)
        assert ppl == pytest.approx(45.02, abs=0.005)

    def test_zero_nats(self):
        assert convert_metrics(0.0) == (1.0, 0.0)

    def test_bits_is_nats_over_ln2(self):
        for nats in (0.1, 1.0, 2.5):
            _, bpc = convert_metrics(nats)
            assert bpc == pytest.approx(nats / math.log(2), rel=1e-15)


class TestReports:
    def test_make_report_consistency(self):
        report = make_report(total_nats=12.0, token_count=8, temperature=1.1)
        assert report.nats_per_token == 1.5
        assert report.perplexity == pytest.approx(math.exp(1.5), rel=1e-15)
        assert report.bpc == pytest.approx(1.5 / math.log(2), rel=1e-15)
        assert report.temperature == 1.1
        assert not report.partial

    def test_format_report_round_trips_floats(self):
        report = make_report(10.0, 7, 0.98, dyneval=DynevalConfig(segment=5, lr=1e-3))
        text = format_report(report)
        assert "tokens=7" in text
        assert "dyn_segment=5" in text
        assert "partial" not in text
        nats_field = [p for p in text.split() if p.startswith("nats_per_token=")][0]
        assert float(nats_field.split("=", 1)[1]) == report.nats_per_token

    def test_partial_flagged(self):
        text = format_report(make_report(1.0, 1, 1.0, partial=True))
        assert "partial=true" in text


class TestEvaluateStatic:
    def test_uniform_model_exact_log_vocab(self):
        config = tiny_config()
        params = model.empty_model_params(config)
        stream = random_stream(101, config.vocab_size)
        report = evaluate_static(params, config, stream)
        assert report.nats_per_token == pytest.approx(math.log(config.vocab_size), abs=1e-13)
        assert report.token_count == 100
        assert report.bpc == pytest.approx(2.0, abs=1e-12)

    def test_chunk_size_does_not_change_totals(self):
        config = tiny_config()
        params = trained_ish_params(config)
        stream = random_stream(97, config.vocab_size)
        reports = [
            evaluate_static(params, config, stream, window=w) for w in (3, 8, 17, 96, 200)
        ]
        for report in reports[1:]:
            assert report.total_nats == reports[0].total_nats
            assert report.token_count == reports[0].token_count

    def test_repeat_calls_identical(self):
        config = tiny_config()
        params = trained_ish_params(config)
        stream = random_stream(60, config.vocab_size)
        a = evaluate_static(params, config, stream)
        b = evaluate_static(params, config, stream)
        assert a.total_nats == b.total_nats

    def test_batched_equals_single_row_for_uniform_model(self):
        config = tiny_config()
        params = model.empty_model_params(config)
        stream = random_stream(120, config.vocab_size)
        single = evaluate_static(params, config, stream, batch_size=1)
        batched = evaluate_static(params, config, stream, batch_size=4, window=8)
        assert single.nats_per_token == pytest.approx(batched.nats_per_token, abs=1e-13)
        # Batching drops the tail remainder, so it scores fewer tokens.
        assert batched.token_count <= single.token_count

    def test_too_short_stream(self):
        config = tiny_config()
        params = model.empty_model_params(config)
        with pytest.raises(ValueError):
            evaluate_static(params, config, np.array([1]))


class TestTemperature:
    def test_default_grid(self):
        grid = default_temperature_grid()
        assert grid[0] == 0.70
        assert grid[-1] == 1.30
        assert len(grid) == 31
        assert 1.0 in grid

    def test_sweep_covers_grid_in_order(self):
        config = tiny_config()
        params = trained_ish_params(config)
        stream = random_stream(40, config.vocab_size)
        results = temperature_sweep(params, config, stream, grid=[0.9, 1.0, 1.1])
        assert [t for t, _ in results] == [0.9, 1.0, 1.1]

    def test_uniform_model_tie_resolves_to_one(self):
        # A zero model is invariant to temperature, so every grid point ties
        # and the tie rule picks the temperature closest to 1.
        config = tiny_config()
        params = model.empty_model_params(config)
        stream = random_stream(50, config.vocab_size)
        best = tune_temperature(params, config, stream, grid=[0.8, 1.0, 1.25])
        assert best == 1.0
        best = tune_temperature(params, config, stream, grid=[0.7, 0.9, 1.1, 1.3])
        assert best == 0.9  # 0.9 and 1.1 tie on distance; smaller wins

    def test_overconfident_model_tuned_to_two(self):
        # Double every logit of a well-calibrated model and the optimal
        # correction on a wide grid is temperature 2.
        config = tiny_config(vocab_size=5)
        rng = Rng(702)
        params = model.empty_model_params(config)
        stream = rng.integers(0, 5, 400)
        counts = np.bincount(stream[1:], minlength=5).astype(np.float64)
        probs = counts / counts.sum()
        params.b_out[:] = 2.0 * np.log(probs)

        wide_grid = [1.0, 1.5, 2.0, 2.5, 3.0]
        best = tune_temperature(params, config, stream, grid=wide_grid)
        assert best == 2.0
        # The bounded default grid saturates at its top end instead.
        best_default = tune_temperature(params, config, stream)
        assert best_default == 1.30

    def test_tuned_temperature_never_hurts(self):
        config = tiny_config()
        params = trained_ish_params(config)
        stream = random_stream(80, config.vocab_size)
        best = tune_temperature(params, config, stream)
        tuned = evaluate_static(params, config, stream, temperature=best)
        plain = evaluate_static(params, config, stream, temperature=1.0)
        assert tuned.nats_per_token <= plain.nats_per_token + 1e-15

    def test_bad_grids_rejected(self):
        config = tiny_config()
        params = model.empty_model_params(config)
        stream = random_stream(10, config.vocab_size)
        with pytest.raises(ValueError):
            temperature_sweep(params, config, stream, grid=[])
        with pytest.raises(ValueError):
            temperature_sweep(params, config, stream, grid=[1.0, -0.5])


def scored_nats_one_pass_per_temperature(params, config, stream, temperature, batch_size, window):
    """Static scoring before the sweep shared its forward pass: a whole
    pass at one temperature, batch-1 tokens subtracted one at a time."""
    rows = stream[None, :] if batch_size == 1 else data.batchify(stream, batch_size)
    states = None
    total = 0.0
    count = 0
    for batch in data.windows(rows, window):
        log_probs, states = model.predict_deterministic(
            params, config, batch.inputs, temperature, states
        )
        bsz, horizon = batch.targets.shape
        picked = log_probs[np.arange(bsz)[:, None], np.arange(horizon)[None, :], batch.targets]
        if batch_size == 1:
            for value in picked[0]:
                total -= float(value)
        else:
            total -= float(np.sum(picked))
        count += picked.size
    return total, count


class TestOnePassSweep:
    @pytest.mark.parametrize("cell", ["lstm", "rlstm"])
    @pytest.mark.parametrize("batch_size", [1, 3])
    @pytest.mark.parametrize("fast", [False, True])
    def test_sweep_bitwise_equals_one_pass_per_temperature(self, cell, batch_size, fast):
        numerics.set_fast_gemm(fast)
        config = tiny_config(cell=cell, vocab_size=7)
        params = trained_ish_params(config)
        stream = random_stream(100, config.vocab_size)
        window = 7  # divides neither 99 nor 32 targets per row: states carried, last window short
        grid = default_temperature_grid()
        sweep = temperature_sweep(params, config, stream, grid, batch_size, window)
        assert [t for t, _ in sweep] == grid
        for temp, nats in sweep:
            total, count = scored_nats_one_pass_per_temperature(
                params, config, stream, temp, batch_size, window
            )
            assert nats == total / count
            report = evaluate_static(params, config, stream, temp, batch_size, window)
            assert (report.total_nats, report.token_count) == (total, count)

    def test_one_forward_pass_per_window_for_the_whole_grid(self, monkeypatch):
        config = tiny_config()
        params = trained_ish_params(config)
        stream = random_stream(50, config.vocab_size)
        calls = []
        original = model.forward_window

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(model, "forward_window", counting)
        grid = default_temperature_grid()
        assert len(grid) == 31
        tune_temperature(params, config, stream, grid, batch_size=1, window=8)
        assert len(calls) == data.count_windows(50, 8) == 7

    def test_logits_returned_without_a_temperature(self):
        config = tiny_config()
        params = trained_ish_params(config)
        inputs = random_stream(12, config.vocab_size)[None, :]
        logits, states = model.predict_deterministic(params, config, inputs, None)
        log_probs, same_states = model.predict_deterministic(params, config, inputs, 0.9)
        assert np.array_equal(numerics.log_softmax(logits, 0.9), log_probs)
        assert np.array_equal(states.c, same_states.c)
        assert np.array_equal(states.h, same_states.h)
        with pytest.raises(ValueError, match="needs a temperature"):
            model.forward_window(
                params, config, inputs, model.ones_masks(config, 1, 12), temperature=None
            )


class TestUnscorableStreams:
    """A batched stream of one-token rows has no target to score."""

    def test_static_refuses_rows_without_a_target(self):
        config = tiny_config()
        params = trained_ish_params(config)
        with pytest.raises(ValueError, match="has 6 tokens; batch size 4 needs at least 8"):
            evaluate_static(params, config, np.arange(6) % 4, batch_size=4, window=4)

    def test_sweep_and_tuning_refuse_rows_without_a_target(self):
        config = tiny_config()
        params = trained_ish_params(config)
        stream = np.arange(6) % 4
        with pytest.raises(ValueError, match="has 6 tokens; batch size 4"):
            temperature_sweep(params, config, stream, batch_size=4, window=4)
        with pytest.raises(ValueError, match="has 6 tokens; batch size 4"):
            tune_temperature(params, config, stream, batch_size=4, window=4)

    def test_two_tokens_per_row_are_enough(self):
        config = tiny_config()
        params = trained_ish_params(config)
        report = evaluate_static(params, config, np.arange(8) % 4, batch_size=4, window=4)
        assert report.token_count == 4 and math.isfinite(report.bpc)

    def test_dynamic_refuses_a_single_token(self):
        config = tiny_config()
        params = trained_ish_params(config)
        with pytest.raises(ValueError, match="has 1 tokens; batch size 1 needs at least 2"):
            evaluate_dynamic(params, config, np.array([1]), DynevalConfig(segment=4))


class TestEvaluateDynamic:
    def test_lr_zero_bitwise_equals_static(self):
        config = tiny_config()
        params = trained_ish_params(config)
        stream = random_stream(151, config.vocab_size)
        static = evaluate_static(params, config, stream, window=64)
        for segment in (7, 32, 100):
            dyn = evaluate_dynamic(
                params, config, stream, DynevalConfig(segment=segment, lr=0.0, decay=0.0)
            )
            assert dyn.total_nats == static.total_nats
            assert dyn.token_count == static.token_count

    def test_adaptation_helps_on_repetitive_stream(self):
        config = tiny_config()
        params = trained_ish_params(config)
        stream = np.tile([0, 1, 2, 3], 120)
        static = evaluate_static(params, config, stream)
        dyn = evaluate_dynamic(
            params, config, stream, DynevalConfig(segment=16, lr=0.05, decay=0.0, norm="global")
        )
        assert dyn.nats_per_token < static.nats_per_token

    def test_slow_weights_unchanged(self):
        config = tiny_config()
        params = trained_ish_params(config)
        before = flatten(params)
        stream = random_stream(64, config.vocab_size)
        evaluate_dynamic(params, config, stream, DynevalConfig(segment=8, lr=0.01))
        assert np.array_equal(flatten(params), before)

    def test_each_segment_scored_before_any_update(self):
        config = tiny_config()
        params = trained_ish_params(config)
        stream = random_stream(33, config.vocab_size)
        events = []
        evaluate_dynamic(
            params,
            config,
            stream,
            DynevalConfig(segment=8, lr=0.01),
            on_event=events.append,
        )
        # score k precedes update k, and update k precedes score k+1.  The
        # 32 targets make 4 segments; nothing adapts on the last one, whose
        # weights no token reads.
        assert events == [
            ("score", 0), ("update", 0), ("score", 1), ("update", 1),
            ("score", 2), ("update", 2), ("score", 3),
        ]

    def test_decay_pulls_back_toward_slow_weights(self):
        # With lr 0 and decay > 0 the fast weights relax toward the originals
        # and stay there; scoring must still finish and match static totals
        # (theta starts at theta0, so the pull is a no-op).
        config = tiny_config()
        params = trained_ish_params(config)
        stream = random_stream(40, config.vocab_size)
        static = evaluate_static(params, config, stream, window=10)
        dyn = evaluate_dynamic(params, config, stream, DynevalConfig(segment=10, lr=0.0, decay=0.5))
        assert dyn.total_nats == pytest.approx(static.total_nats, abs=1e-12)

    def test_divergent_adaptation_returns_partial(self):
        config = tiny_config()
        params = trained_ish_params(config)
        stream = random_stream(400, config.vocab_size)
        # An absurd learning rate without normalization overflows the fast
        # weights to inf; the report covers only the finite prefix.
        with np.errstate(over="ignore", invalid="ignore"):
            dyn = evaluate_dynamic(
                params,
                config,
                stream,
                DynevalConfig(segment=10, lr=1e200, decay=0.0, norm="none"),
            )
        assert dyn.partial
        assert dyn.token_count < 399
        assert math.isfinite(dyn.total_nats)
        assert "partial=true" in format_report(dyn)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_update_warns_nothing(self):
        # A finite but absurd learning rate overflows the first update; the
        # next forward pass reports the divergence, and numpy says nothing.
        config = tiny_config()
        params = trained_ish_params(config)
        stream = random_stream(40, config.vocab_size)
        dyn = evaluate_dynamic(
            params, config, stream, DynevalConfig(segment=10, lr=1e308, norm="none")
        )
        assert dyn.partial
        assert dyn.token_count == 10

    @pytest.mark.parametrize("cell", ["lstm", "rlstm"])
    def test_second_segment_divergence_keeps_the_first(self, cell):
        # A NaN put into one slow-weight cell bias after segment 0 is scored
        # reaches the fast weights through the decay pull, so segment 1's
        # forward pass diverges and only segment 0's tokens are reported.
        config = tiny_config(cell=cell)
        params = trained_ish_params(config)
        stream = random_stream(41, config.vocab_size)
        first = evaluate_static(params, config, stream[:11], window=10)

        def poison(event):
            if event == ("update", 0):
                params.layers.cell.b[0, 0] = np.nan

        dyn = evaluate_dynamic(
            params, config, stream, DynevalConfig(segment=10, lr=1e-3, decay=0.02),
            on_event=poison,
        )
        assert dyn.partial
        assert dyn.token_count == 10
        assert dyn.total_nats == first.total_nats

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DynevalConfig(segment=0).validate()
        with pytest.raises(ValueError):
            DynevalConfig(lr=-1e-3).validate()
        with pytest.raises(ValueError, match="lr must be >= 0 and finite, got inf"):
            DynevalConfig(lr=math.inf).validate()
        with pytest.raises(ValueError):
            DynevalConfig(decay=1.0).validate()
        with pytest.raises(ValueError):
            DynevalConfig(norm="per-layer").validate()


class TestTuneDyneval:
    def test_grid_starts_static(self):
        grid = default_dyneval_grid(segment=50)
        assert grid[0].lr == 0.0 and grid[0].decay == 0.0
        assert all(d.segment == 50 for d in grid)
        assert len(grid) == 11

    def test_never_worse_than_static(self):
        config = tiny_config()
        params = trained_ish_params(config)
        stream = random_stream(80, config.vocab_size)
        static = evaluate_static(params, config, stream)
        best, best_nats = tune_dyneval(
            params, config, stream, default_dyneval_grid(segment=20)
        )
        assert best_nats <= static.nats_per_token
        assert best is not None

    def test_tie_keeps_earliest_entry(self):
        config = tiny_config()
        params = model.empty_model_params(config)
        stream = random_stream(30, config.vocab_size)
        # The zero model never improves, so all entries tie at ln V and the
        # static entry must win.
        grid = [
            DynevalConfig(segment=10, lr=0.0, decay=0.0),
            DynevalConfig(segment=10, lr=0.0, decay=0.0, norm="global"),
        ]
        best, _ = tune_dyneval(params, config, stream, grid)
        assert best is grid[0]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            tune_dyneval(None, None, None, [])


def reference_dynamic(params, config, stream, dcfg, temperature=1.0):
    """(total nats, token count, partial) of one entry, from dynamic
    evaluation's own segment loop: a private copy of the weights, scored and
    then adapted segment by segment, as before tuning shared its passes.
    Each segment runs on parameters built fresh from the adapted vector, so
    nothing that a parameter object might keep outlives its segment."""
    adapting = dcfg.lr > 0.0 or dcfg.decay > 0.0
    last = (stream.size - 2) // dcfg.segment
    theta0 = params.vector
    theta = theta0.copy()
    states = None
    total = 0.0
    count = 0
    for k, batch in enumerate(data.windows(stream[None, :], dcfg.segment)):
        update = adapting and k < last
        fast = model.empty_model_params(config, theta.copy())
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                log_probs, cache, states = model.forward_window(
                    fast, config, batch.inputs, model.ones_masks(config, *batch.inputs.shape),
                    states, temperature, backward=update,
                )
        except numerics.DivergenceError:
            return total, count, True
        picked = log_probs[0, np.arange(batch.targets.shape[1]), batch.targets[0]]
        for value in picked:
            total -= float(value)
        count += picked.size
        if update:
            _, grad_lp = model.nll_from_log_probs(log_probs, batch.targets)
            g = model.backward_window(fast, config, cache, grad_lp).vector
            with np.errstate(over="ignore", invalid="ignore"):
                if dcfg.norm == "global":
                    g = g / max(1.0, float(np.linalg.norm(g)))
                theta = theta - dcfg.lr * g + dcfg.decay * (theta0 - theta)
    return total, count, False


def reference_tune(params, config, stream, grid):
    """The entry, and its nats/token, that one reference pass per entry picks."""
    best, best_nats = None, math.inf
    for dcfg in grid:
        total, count, partial = reference_dynamic(params, config, stream, dcfg)
        nats = math.inf if partial else total / count
        if nats < best_nats:
            best, best_nats = dcfg, nats
    return best, best_nats


def counted(monkeypatch, name):
    """Replace model.<name> by a wrapper that records its calls."""
    calls = []
    original = getattr(model, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(model, name, wrapper)
    return calls


GRIDS = {
    "default-2-segments": (41, default_dyneval_grid(segment=20)),
    "default-5-segments": (101, default_dyneval_grid(segment=20)),
    "one-diverges": (101, [
        DynevalConfig(segment=20, lr=1e-3, decay=0.02, norm="global"),
        DynevalConfig(segment=20, lr=1e200, decay=0.0, norm="none"),
        DynevalConfig(segment=20, lr=0.0, decay=0.0),
        DynevalConfig(segment=20, lr=1e-2, decay=0.0, norm="global"),
    ]),
    "two-segment-lengths": (61, [
        DynevalConfig(segment=20, lr=1e-2, decay=0.0, norm="global"),
        DynevalConfig(segment=7, lr=1e-2, decay=0.0, norm="global"),
        DynevalConfig(segment=7, lr=0.0, decay=0.0),
        DynevalConfig(segment=20, lr=1e-2, decay=0.02, norm="global"),
        DynevalConfig(segment=7, lr=3e-3, decay=0.02, norm="none"),
    ]),
}


class TestSharedDynevalWalk:
    """Tuning walks the segments once and lets entries whose fast weights
    have the same bytes share their passes; every entry keeps the bits of
    its own pass."""

    @pytest.mark.parametrize("cell", ["lstm", "rlstm"])
    @pytest.mark.parametrize("fast", [False, True])
    @pytest.mark.parametrize("name", list(GRIDS))
    def test_every_entry_bitwise_equals_its_own_pass(self, cell, fast, name):
        numerics.set_fast_gemm(fast)
        config = tiny_config(cell=cell, vocab_size=7)
        params = trained_ish_params(config)
        length, grid = GRIDS[name]
        stream = random_stream(length, config.vocab_size)
        reports = evaluation._dynamic_reports(params, config, stream, grid, 1.0)
        expected = [reference_dynamic(params, config, stream, dcfg) for dcfg in grid]
        assert [(r.total_nats, r.token_count, r.partial) for r in reports] == expected
        assert [r.dyneval for r in reports] == grid
        assert any(not partial for _, _, partial in expected)
        if name == "one-diverges":
            assert [partial for _, _, partial in expected] == [False, True, False, False]
        best, best_nats = tune_dyneval(params, config, stream, grid)
        ref_best, ref_nats = reference_tune(params, config, stream, grid)
        assert best is ref_best and best_nats == ref_nats

    @pytest.mark.parametrize("order", [(0.0, 0.02), (0.02, 0.0)])
    def test_exact_tie_keeps_the_earlier_entry(self, order):
        # On a 2-segment stream only the first update is made, where
        # theta0 - theta is 0: both decays give the same weights and nats.
        config = tiny_config(vocab_size=7)
        params = trained_ish_params(config)
        stream = random_stream(41, config.vocab_size)
        grid = [DynevalConfig(segment=20, lr=1e-2, decay=decay, norm="global") for decay in order]
        first, second = (reference_dynamic(params, config, stream, dcfg) for dcfg in grid)
        assert first == second
        best, best_nats = tune_dyneval(params, config, stream, grid)
        assert best is grid[0]
        assert best_nats == first[0] / first[1]

    def test_shared_prefix_counts_passes(self, monkeypatch):
        # 127 targets in segments of 100: all 11 entries share segment 0's
        # forward and backward pass; the first update splits them into the
        # static entry and five learning rates, which score segment 1.
        config = tiny_config(vocab_size=7)
        params = trained_ish_params(config)
        stream = random_stream(128, config.vocab_size)
        grid = default_dyneval_grid(segment=100)
        forwards = counted(monkeypatch, "forward_window")
        backwards = counted(monkeypatch, "backward_window")
        tune_dyneval(params, config, stream, grid)
        assert (len(forwards), len(backwards)) == (7, 1)
        forwards.clear()
        backwards.clear()
        reference_tune(params, config, stream, grid)
        assert (len(forwards), len(backwards)) == (22, 10)

    @pytest.mark.parametrize("cell", ["lstm", "rlstm"])
    @pytest.mark.parametrize("fast", [False, True])
    def test_in_place_adapt_equals_fresh_params_every_segment(self, cell, fast):
        # A lone adapting entry takes the in-place branch: it writes each
        # update into its one params object's vector, which the next segment's
        # window must read as it is then.
        numerics.set_fast_gemm(fast)
        config = tiny_config(cell=cell, vocab_size=7)
        params = trained_ish_params(config)
        stream = random_stream(101, config.vocab_size)
        dcfg = DynevalConfig(segment=20, lr=1e-2, decay=0.02, norm="global")
        report = evaluate_dynamic(params, config, stream, dcfg)
        expected = reference_dynamic(params, config, stream, dcfg)
        assert (report.total_nats, report.token_count, report.partial) == expected
        assert not report.partial  # every segment was scored
        assert report.total_nats != evaluate_static(params, config, stream).total_nats  # adapted

    def test_slow_weights_unchanged(self):
        config = tiny_config()
        params = trained_ish_params(config)
        before = params.vector.copy()
        stream = random_stream(101, config.vocab_size)
        tune_dyneval(params, config, stream, GRIDS["one-diverges"][1])
        assert np.array_equal(params.vector, before)
