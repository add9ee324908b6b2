import json
import math
import warnings

import numpy as np
import pytest

from rnnlab import numerics
from rnnlab.numerics import (
    DivergenceError,
    Rng,
    bernoulli_mask,
    finite_difference_gradient,
    gemm,
    log_softmax,
    log_sum_exp,
    max_relative_error,
    sigmoid,
)


def naive_gemm(a, b):
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


class TestGemm:
    def test_matches_triple_loop_bitwise(self):
        rng = Rng(11)
        for rows, inner, cols in [(3, 4, 5), (1, 7, 2), (6, 1, 3), (5, 16, 5)]:
            a = rng.uniform(-2, 2, (rows, inner))
            b = rng.uniform(-2, 2, (inner, cols))
            got = gemm(a, b)
            want = naive_gemm(a, b)
            assert got.shape == want.shape
            assert np.array_equal(got, want), "default gemm must equal the reference exactly"

    def test_fast_path_close_to_reference(self):
        rng = Rng(12)
        a = rng.uniform(-1, 1, (8, 9))
        b = rng.uniform(-1, 1, (9, 4))
        previous = numerics.set_fast_gemm(True)
        try:
            fast = gemm(a, b)
        finally:
            numerics.set_fast_gemm(previous)
        assert np.allclose(fast, naive_gemm(a, b), rtol=0, atol=1e-12)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            gemm(np.zeros((2, 3)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            gemm(np.zeros(3), np.zeros((3, 2)))

    def test_works_on_transposed_views(self):
        rng = Rng(13)
        a = rng.uniform(-1, 1, (4, 3))
        b = rng.uniform(-1, 1, (4, 5))
        assert np.array_equal(gemm(a.T, b), naive_gemm(np.ascontiguousarray(a.T), b))


class TestStackedGemm:
    """A stack of products, 3-D operands on a shared leading axis, gives each
    product the bits it has as a 2-D gemm of its own.  On the BLAS path that
    depends on the BLAS build; these tests pin it for the exact operands of a
    wavefront step: (L, B, .) activations times the contiguous (L, in, out)
    copies that forward_weights makes, with the sigmoid gates' columns
    negated, or a partial tick's rows of them, as the steps receive them."""

    @pytest.mark.parametrize("fast", [False, True])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("batch", [1, 4, 32])
    @pytest.mark.parametrize("cell, rank", [("rlstm", 0), ("lstm", 3)])
    def test_each_product_keeps_its_bits(self, fast, dtype, batch, cell, rank):
        from rnnlab import cells, model, mogrifier

        numerics.set_fast_gemm(fast)
        config = model.ModelConfig(
            layers=3, state_size=64, vocab_size=9, cell=cell, mogrifier_rounds=4,
            mogrifier_rank=rank, dtype=dtype,
        )
        params = model.init_model_params(Rng(14), config)
        stack = params.layers
        cell_weights = cells.forward_weights(stack.cell)
        matrices = list(cell_weights[:1] if cell == "lstm" else cell_weights[:3])
        matrices += [factor for factors in mogrifier.forward_weights(stack.mog) for factor in factors]
        rng = Rng(15)
        for w in matrices:
            assert w.flags.c_contiguous and not np.shares_memory(w, params.vector)
            for part in (w, w[1:]):  # a whole tick's layers, and a partial tick's rows
                layers, rows, _ = part.shape
                # A tick's view of (L, positions, B, .) window buffers.
                x = rng.uniform(-1, 1, (layers, 2, batch, rows)).astype(dtype)[:, 1]
                got = gemm(x, part)
                for l in range(layers):
                    want = gemm(x[l], part[l])
                    assert got[l].dtype == want.dtype and got[l].tobytes() == want.tobytes()

    @pytest.mark.parametrize("fast", [False, True])
    @pytest.mark.parametrize("batch", [1, 4])
    def test_negated_copies_give_negated_pre_activations(self, fast, batch):
        # gemm(x, -W) + -b is -(gemm(x, W) + b) bit for bit: negation is exact
        # and rounding is sign-symmetric.  The forward weights negate the
        # sigmoid gates' columns on that ground.
        from rnnlab import cells

        numerics.set_fast_gemm(fast)
        rng = Rng(17)
        for layers, k, m in ((2, 64, 64), (2, 128, 64), (3, 6, 24)):
            w, b = rng.uniform(-1, 1, (layers, m, k)), rng.uniform(-1, 1, (layers, 1, m))
            x = rng.uniform(-1, 1, (layers, batch, k))
            negated_w, negated_b = numerics.signed_copies((w.mT, b), [(-1,), (-1,)])
            want = gemm(x, np.ascontiguousarray(w.mT))
            want += b
            got = gemm(x, negated_w)
            got += negated_b
            assert got.tobytes() == np.negative(want).tobytes()
        p = cells.init_cell_params(rng, 6, 6, "lstm", 8.0)
        w, b = cells.forward_weights(p)
        signs = np.repeat([-1.0, 1.0, -1.0, -1.0], 6)  # i, j, f, o: all but j negated
        assert w.tobytes() == (p.w.T * signs).tobytes() and b.tobytes() == (p.b * signs).tobytes()

    def test_exact_path_matches_the_triple_loop(self):
        rng = Rng(16)
        a = rng.uniform(-2, 2, (3, 4, 5))
        b = rng.uniform(-2, 2, (3, 5, 2))
        got = gemm(a, b)
        for l in range(3):
            assert np.array_equal(got[l], naive_gemm(a[l], b[l]))

    def test_rejects_unpaired_stacks(self):
        with pytest.raises(ValueError, match="mismatch"):
            gemm(np.zeros((2, 3, 4)), np.zeros((3, 4, 2)))
        with pytest.raises(ValueError, match="2-D or two 3-D"):
            gemm(np.zeros((2, 3, 4)), np.zeros((4, 2)))
        with pytest.raises(ValueError, match="2-D or two 3-D"):
            gemm(np.zeros((2, 3, 4)), np.zeros((2, 4, 2)), rowwise=True)


class TestActivations:
    @pytest.mark.parametrize(
        "x", [np.linspace(-10, 10, 41), 0.3, 3, [0.3, -2.0], np.float32(0.3)],
        ids=["array", "float", "int", "list", "float32"],
    )
    def test_sigmoid_matches_definition(self, x):
        # Python numbers and lists are taken as numpy takes them (float64, or
        # int64 promoted to float64), not at float32.
        want = np.asarray(1 / (1 + np.exp(-np.asarray(x))))
        got = np.asarray(sigmoid(x))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_sigmoid_extreme_inputs_finite(self):
        out = sigmoid(np.array([-1000.0, -50.0, 50.0, 1000.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[-1] == 1.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("form", ["scalar", "0-d", "2-D"])
    def test_sigmoid_bits_with_and_without_out(self, dtype, form):
        # The in-place steps (negate, exp, += 1, reciprocal) round exactly as
        # the formula does, and neither form warns where its overflow is
        # silenced: by sigmoid itself without `out`, by the caller with it.
        values = [-1000.0, -30.0, -0.5, 0.0, 0.25, 30.0, 1000.0]
        inputs = {
            "scalar": [dtype(v) for v in values],
            "0-d": [np.array(v, dtype) for v in values],
            "2-D": [np.array(values, dtype).reshape(1, -1).repeat(3, axis=0)],
        }[form]
        for x in inputs:
            with np.errstate(over="ignore"):
                want = np.asarray(1 / (1 + np.exp(-np.asarray(x, dtype))))
            out = np.empty(np.shape(x), dtype)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = np.asarray(sigmoid(x))
                with np.errstate(over="ignore"):
                    in_place = sigmoid(x, out=out)
            assert in_place is out
            for result in (got, out):
                assert result.dtype == want.dtype and result.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sigmoid_of_a_negated_pre_activation_keeps_the_bits(self, dtype):
        # A forward step gets each sigmoid gate's pre-activation negated (its
        # weights' columns are) and forms the sigmoid without the negation.
        x = np.array([0.0, -0.0, 30.0, -30.0, 709.5, -709.5, 800.0, -800.0], dtype)
        want = sigmoid(x)
        with np.errstate(over="ignore"):
            got = numerics.sigmoid_of_negated(np.negative(x), np.empty_like(x))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_sigmoid_out_leaves_overflow_to_the_callers_error_state(self):
        x = np.array([-1000.0, 0.0])
        with np.errstate(over="raise"):
            assert sigmoid(x)[0] == 0.0
            with pytest.raises(FloatingPointError):
                sigmoid(x, out=np.empty(2))

    def test_derivatives_from_values_match_finite_differences(self):
        for x0 in (-2.0, -0.3, 0.0, 1.7):
            s = float(sigmoid(np.array(x0)))
            num = (sigmoid(np.array(x0 + 1e-6)) - sigmoid(np.array(x0 - 1e-6))) / 2e-6
            assert abs(numerics.dsigmoid_from_value(s) - num) < 1e-9
            t = math.tanh(x0)
            num_t = (math.tanh(x0 + 1e-6) - math.tanh(x0 - 1e-6)) / 2e-6
            assert abs(numerics.dtanh_from_value(t) - num_t) < 1e-9


class TestSoftmax:
    def test_invalid_temperature_rejected(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                log_softmax(np.zeros(3), bad)

    def test_log_softmax_consistent_and_stable(self):
        rng = Rng(16)
        z = rng.uniform(-4, 4, (3, 6))
        e = np.exp(z)
        assert np.allclose(log_softmax(z), np.log(e / e.sum(axis=-1, keepdims=True)), atol=1e-12)
        huge = np.array([[1e4, 1e4 + 1.0]])
        out = log_softmax(huge)
        assert np.all(np.isfinite(out))

    def test_log_sum_exp_against_reference(self):
        rng = Rng(17)
        xs = rng.uniform(-700, 700, (4, 5))
        want = np.logaddexp.reduce(xs, axis=1)
        got = log_sum_exp(xs, axis=1)
        assert np.allclose(got, want, rtol=1e-14)
        assert abs(log_sum_exp(xs) - np.logaddexp.reduce(xs.ravel())) < 1e-9
        with pytest.raises(ValueError):
            log_sum_exp(np.zeros((0,)))


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(123).uniform(0, 1, 100)
        b = Rng(123).uniform(0, 1, 100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, Rng(124).uniform(0, 1, 100))

    def test_state_round_trip_resumes_stream(self):
        rng = Rng(7)
        rng.random(17)  # advance, leaving a partially consumed buffer
        state = rng.state()
        json.dumps(state)  # must be plain-serializable
        clone = Rng.from_state(state)
        assert np.array_equal(rng.random(50), clone.random(50))
        assert np.array_equal(rng.integers(0, 1000, 20), clone.integers(0, 1000, 20))

    def test_known_reference_values(self):
        # Philox is specified exactly, so these values pin platform stability.
        rng = Rng(0)
        first = rng.random(3)
        again = Rng(0).random(3)
        assert np.array_equal(first, again)


class TestBernoulliMask:
    def test_keep_one_is_exact_ones(self):
        mask = bernoulli_mask(Rng(1), (5, 7), 1.0)
        assert np.array_equal(mask, np.ones((5, 7)))

    def test_values_and_mean(self):
        keep = 0.25
        mask = bernoulli_mask(Rng(2), (200, 50), keep)
        assert set(np.unique(mask)) <= {0.0, 1.0 / keep}
        assert abs(mask.mean() - 1.0) < 0.02

    def test_invalid_keep_rejected(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                bernoulli_mask(Rng(3), (2, 2), bad)


class TestFiniteDifferences:
    def test_quadratic_oracle(self):
        rng = Rng(21)
        a = rng.uniform(-1, 1, (6, 6))
        a = a + a.T
        theta = rng.uniform(-1, 1, 6)

        def f(t):
            return float(t @ a @ t)

        grad = finite_difference_gradient(f, theta, eps=1e-6)
        assert max_relative_error(2 * a @ theta, grad) < 1e-7

    def test_non_finite_function_raises(self):
        def f(t):
            return float("nan")

        with pytest.raises(DivergenceError):
            finite_difference_gradient(f, np.zeros(2))

    def test_perturbs_in_place_and_restores(self):
        theta = np.array([0.3, -1.2, 2.5])
        tail = theta[1:]  # f reads theta through a view

        def f(t):
            assert t is theta
            return float(np.sum(tail**2))

        before = theta.tobytes()
        grad = finite_difference_gradient(f, theta)
        assert theta.tobytes() == before
        assert grad[0] == 0.0
        assert max_relative_error(grad[1:], 2 * theta[1:]) < 1e-9

    def test_entry_restored_when_f_raises(self):
        theta = np.array([1.0, 2.0])

        def f(t):
            raise RuntimeError("probe failed")

        with pytest.raises(RuntimeError):
            finite_difference_gradient(f, theta)
        assert theta.tolist() == [1.0, 2.0]

    def test_needs_a_float64_vector(self):
        for bad in (np.zeros(2, dtype=np.float32), np.zeros((2, 2))):
            with pytest.raises(ValueError):
                finite_difference_gradient(lambda t: 0.0, bad)

    def test_max_relative_error_floor(self):
        # Differences far below the floor are measured against the floor.
        assert max_relative_error(np.array([0.0]), np.array([1e-9])) == pytest.approx(1e-5)
        with pytest.raises(ValueError):
            max_relative_error(np.zeros(2), np.zeros(3))
