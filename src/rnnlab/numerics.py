"""Deterministic dense linear algebra, activations, reproducible RNG, and the
finite-difference gradient oracle.

Everything here is pure given its inputs and an explicitly passed Rng.  The
default gemm accumulates in a fixed row-major order so results are bitwise
reproducible and match a naive triple-loop reference exactly; a fast BLAS
path can be enabled for training speed at the cost of that bitwise guarantee
(run-to-run determinism on one build is preserved either way).
"""

from __future__ import annotations

import numpy as np


class DivergenceError(RuntimeError):
    """Raised when a computation produces non-finite values."""


_fast_gemm = False
_ONE = {np.dtype(t): np.ones((), t) for t in (np.float32, np.float64)}  # faster than 1.0


def set_fast_gemm(enabled: bool) -> bool:
    """Toggle the BLAS gemm path. Returns the previous setting."""
    global _fast_gemm
    previous = _fast_gemm
    _fast_gemm = bool(enabled)
    return previous


def fast_gemm_enabled() -> bool:
    return _fast_gemm


def gemm(a, b, rowwise=False, out=None):
    """Matrix product with a fixed summation order: of two matrices, or of
    two stacks of them, 3-D operands whose equal leading axis pairs the
    products (the layers of a wavefront step); into `out` when given.

    The default path accumulates over the inner dimension sequentially
    (outer-product updates), which is bitwise identical to the classic
    i-j-k triple loop in IEEE double precision; each row of the result is
    then independent of the other rows, and each product of a stack has the
    bits it has on its own.  The BLAS path picks its kernels by the shape, so
    a row's bits can depend on how many rows come with it; `rowwise` (for
    matrices) makes it form each row as a product of its own (still one call).
    A stack runs as one np.matmul, which forms each product with the kernel
    of its own shape.
    """
    if type(a) is not np.ndarray or type(b) is not np.ndarray:
        a, b = np.asarray(a), np.asarray(b)
    sa, sb = a.shape, b.shape  # two 2-D or 3-D operands whose inner and leading sizes agree
    if not 1 < len(sa) == len(sb) < 4 - rowwise or sa[-1] != sb[-2] or sa[:-2] != sb[:-2]:
        _refuse(a, b, rowwise)
    if _fast_gemm:
        return np.matmul(a[:, None, :], b)[:, 0, :] if rowwise else np.matmul(a, b, out)
    out = np.empty((*sa[:-1], sb[-1]), np.result_type(a, b)) if out is None else out
    out[...] = 0.0
    for k in range(sa[-1]):
        out += a[..., k : k + 1] * b[..., k : k + 1, :]
    return out


def _refuse(a, b, rowwise):
    """Raise the error of operands that gemm does not take."""
    if a.ndim != b.ndim or a.ndim not in (2, 3) or (rowwise and a.ndim != 2):
        raise ValueError(
            f"gemm expects two 2-D or two 3-D operands, got {a.ndim}-D and {b.ndim}-D"
        )
    raise ValueError(f"gemm dimension mismatch: {a.shape} x {b.shape}")


def signed_copies(arrays, signs, out=None) -> tuple:
    """Contiguous copies of `arrays` (into out's when given), the last axis of
    each cut into one block per sign, 1 or -1, and times it: bits kept or flipped."""
    out = out or tuple(np.empty(a.shape, a.dtype) for a in arrays)
    for into, a, sign in zip(out, arrays, signs, strict=True):
        width = a.shape[-1] // len(sign)
        for k, s in enumerate(sign):
            block = slice(k * width, (k + 1) * width)
            np.multiply(a[..., block], s, out=into[..., block])
    return out


def sigmoid(x, out=None):
    """1 / (1 + exp(-x)), formed in place in `out` (of x's dtype) by steps that
    round the same way.  exp overflow for very negative x gives 0 through 1/inf,
    the correct limit; its warning is silenced here without `out`, and by the
    caller with it (forward_window does so once per window)."""
    if out is None:
        x = np.asarray(x)
        x = x.astype(np.result_type(x, np.float32), copy=False)
        with np.errstate(over="ignore"):
            return np.divide(1.0, 1.0 + np.exp(-x))
    return sigmoid_of_negated(np.negative(x, out=out), out)


def sigmoid_of_negated(z, out):
    """1 / (1 + exp(z)) in `out`: sigmoid after its negation, so sigmoid(-z)'s bits."""
    np.exp(z, out)
    np.add(out, _ONE.get(out.dtype, 1.0), out)
    return np.reciprocal(out, out)


def dsigmoid_from_value(s):
    """Derivative of the sigmoid expressed through its output: s * (1 - s)."""
    return s * (1.0 - s)


def dtanh_from_value(t):
    """Derivative of tanh expressed through its output: 1 - t**2."""
    return 1.0 - t * t


def log_softmax(logits, temperature=1.0):
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    z = np.asarray(logits) / temperature
    m = np.max(z, axis=-1, keepdims=True)
    shifted = z - m
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def log_sum_exp(xs, axis=None):
    xs = np.asarray(xs)
    if xs.size == 0:
        raise ValueError("log_sum_exp of an empty input")
    m = np.max(xs, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(xs - m), axis=axis, keepdims=True))
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


class Rng:
    """Seeded Philox generator.

    Philox is counter-based with a published algorithm, so the same seed
    yields the same stream on every platform.  The full generator state
    (including buffered output) serializes to plain ints for checkpoints.
    """

    def __init__(self, seed: int):
        self._gen = np.random.Generator(np.random.Philox(seed))

    def random(self, size=None):
        return self._gen.random(size)

    def uniform(self, low, high, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)

    def state(self) -> dict:
        raw = self._gen.bit_generator.state
        return {
            "counter": [int(v) for v in raw["state"]["counter"]],
            "key": [int(v) for v in raw["state"]["key"]],
            "buffer": [int(v) for v in raw["buffer"]],
            "buffer_pos": int(raw["buffer_pos"]),
            "has_uint32": int(raw["has_uint32"]),
            "uinteger": int(raw["uinteger"]),
        }

    @classmethod
    def from_state(cls, state: dict) -> "Rng":
        rng = cls(0)
        rng._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.array(state["counter"], dtype=np.uint64),
                "key": np.array(state["key"], dtype=np.uint64),
            },
            "buffer": np.array(state["buffer"], dtype=np.uint64),
            "buffer_pos": state["buffer_pos"],
            "has_uint32": state["has_uint32"],
            "uinteger": state["uinteger"],
        }
        return rng


def bernoulli_mask(rng: Rng, shape, keep_prob: float, out=None):
    """Inverted-dropout mask: entries are 0 or 1/keep_prob, mean 1.

    With `out`, the mask is written straight into that array (which `shape`
    must broadcast to) and nothing else is allocated besides the draw."""
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError(f"keep_prob must be in (0, 1], got {keep_prob}")
    kept = rng.random(shape) < keep_prob
    return np.divide(kept, keep_prob, out=out)


def finite_difference_gradient(f, theta, eps=1e-5):
    """Central-difference gradient of f(theta), a scalar, with respect to the
    1-D float64 vector theta.  Each entry of theta is perturbed in place and
    restored before the next, so f may read theta through views of it."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if theta.dtype != np.float64 or theta.ndim != 1:
        raise ValueError(f"theta must be a 1-D float64 vector, got {theta.ndim}-D {theta.dtype}")
    grad = np.zeros_like(theta)
    for idx in range(theta.size):
        saved = theta[idx]
        try:
            theta[idx] = saved + eps
            f_plus = f(theta)
            theta[idx] = saved - eps
            f_minus = f(theta)
        finally:
            theta[idx] = saved
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise DivergenceError(
                f"non-finite function value while perturbing parameter index {idx}"
            )
        grad[idx] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def max_relative_error(analytic, numeric, floor=1e-4):
    """max |a - n| / max(|a|, |n|, floor), the yardstick for all gradient checks."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    if analytic.shape != numeric.shape:
        raise ValueError(f"shape mismatch: {analytic.shape} vs {numeric.shape}")
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    if analytic.size == 0:
        return 0.0
    return float(np.max(np.abs(analytic - numeric) / denom))
