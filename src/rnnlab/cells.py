"""Recurrent cells: the classic LSTM (optionally with a capped input gate) and
a rewired variant whose forget gate is computed from the proposed update and
whose output gate reads the cell state only.

Gates are fused: the LSTM applies w (4n, m+n) to [x, h] for i, j, f, o; the
rewired cell applies w_ij (2n, m+n) to [x, h] for i and j, w_f (n, 2n) to
[i*j, h] for f and w_oc (n, n) to the cell state for o.  b (4n,) holds the
biases of i, j, f, o; `gate_views` names the per-gate blocks.

A step, forward or backward, also runs the layers of a wavefront tick as
one: parameters with a leading layer axis, (L, 4n, m+n) and so on, and states
and caches of (L, B, .) arrays.  A step runs on buffers its caller bound
once per window shape (the model's tick plan): a cache (new_cache: a step of
(B, .) or (L, B, .) arrays, or a window of (T, B, .) arrays viewed step by
step with `at(t)`) whose xh it filled with [x, h_prev] and whose c_prev is
the entry state, and for a forward step an h and new_work scratch.  It
computes into them, leaving validation and the finiteness check to its
caller.  A forward step multiplies by `forward_weights(p)`, contiguous
transposed copies made once per window; a backward step reads p itself and
writes pre-activation gradients over the gate values, from which
`weight_grads` takes one gemm per fused matrix over all the rows of a
cache.  Both form gate values in contiguous arrays and store them into the
cache once: elementwise work on the cache's views, strided when layers are
stacked, costs two to three times as much.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Rng, dsigmoid_from_value, dtanh_from_value, gemm, signed_copies
from .numerics import sigmoid_of_negated


@dataclass
class CellState:
    c: np.ndarray
    h: np.ndarray

    def copy(self) -> "CellState":
        return CellState(self.c.copy(), self.h.copy())


@dataclass
class LstmParams:
    w: np.ndarray  # (4n, m+n): rows i, j, f, o; columns x, then h
    b: np.ndarray  # (4n,)

    @property
    def state_size(self) -> int:
        return self.b.shape[-1] // 4

    @property
    def input_size(self) -> int:
        return self.w.shape[-1] - self.state_size


@dataclass
class RlstmParams:
    w_ij: np.ndarray  # (2n, m+n): rows i, j; columns x, then h
    w_f: np.ndarray  # (n, 2n): columns u = i*j, then h
    w_oc: np.ndarray  # (n, n), output gate reads the cell state
    b: np.ndarray  # (4n,): i, j, f, o

    @property
    def state_size(self) -> int:
        return self.w_oc.shape[-1]

    @property
    def input_size(self) -> int:
        return self.w_ij.shape[-1] - self.state_size


def forward_weights(p, out=None) -> tuple:
    """What a forward step of p's cell reads, as contiguous copies, written
    into `out` (an earlier window's) when given: each weight matrix
    transposed, (..., in, out), as BLAS multiplies by it faster than by the
    strided view, and each bias with a batch axis, (..., 1, out); (w, b) for
    the LSTM, (w_ij, w_f, w_oc, b_ij, b_f, b_o) for the rewired cell.  The
    columns of the sigmoid gates (i, f, o) are negated, which spares each
    sigmoid its negation and keeps every bit.  The caller makes them once per
    window; none is kept on p, whose arrays are updated in place."""
    b, n = p.b[..., None, :], p.state_size
    if isinstance(p, LstmParams):
        return signed_copies((p.w.mT, b), [(-1, 1, -1, -1)] * 2, out)
    ij, f, o = b[..., : 2 * n], b[..., 2 * n : 3 * n], b[..., 3 * n :]
    weights = (p.w_ij.mT, p.w_f.mT, p.w_oc.mT, ij, f, o)
    return signed_copies(weights, [(-1, 1), (-1,), (-1,), (-1, 1), (-1,), (-1,)], out)


def _block_copies(a, count: int):
    """The `count` equal blocks of the last axis, as one array (count, ...) of
    their copies: each block is contiguous, which a block of the cache's
    gates is not."""
    lead = a.ndim - 1
    blocks = a.reshape(*a.shape[:-1], count, a.shape[-1] // count)
    return blocks.transpose(lead, *range(lead), lead + 1).copy()


def gate_views(p) -> dict:
    """Per-gate views into the fused matrices, by name (w_ix is the input
    weight of gate i, w_ih its state weight, b_i its bias, and so on), in the
    order in which init draws them."""
    n, m = p.state_size, p.input_size
    rows = {g: slice(k * n, (k + 1) * n) for k, g in enumerate("ijfo")}
    cols = {"x": slice(None, m), "h": slice(m, None)}
    lstm = isinstance(p, LstmParams)
    w_xh = p.w if lstm else p.w_ij
    views = {f"w_{g}{s}": w_xh[rows[g], cols[s]] for g in "ijfo"[: 4 if lstm else 2] for s in "xh"}
    if not lstm:
        views.update(w_fu=p.w_f[:, :n], w_fh=p.w_f[:, n:], w_oc=p.w_oc)
    views.update({f"b_{g}": p.b[rows[g]] for g in "ijfo"})
    return views


@dataclass
class CellCache:
    xh: np.ndarray  # [x, h_prev], the input of w or w_ij
    gates: np.ndarray | None  # i, j, f, o, then (backward) their pre-activation gradients
    c: np.ndarray
    tanh_c: np.ndarray
    uh: np.ndarray | None = None  # rlstm: [i*j, h_prev], the input of w_f
    state_mask: np.ndarray | None = None  # rlstm: (B, n), shared by the steps of a window
    c_prev: np.ndarray | None = None  # the cell state each step started from
    capped: bool = True  # lstm: whether the input gate is min(i, 1 - f)

    def at(self, t) -> "CellCache":
        """The view [t] of every buffer; t is a step or any index of the leading axes.
        A buffer may be None: a scoring cache has no gates, since a step that no
        backward pass reads stores none, and the backward pass's ticks view only
        what they read."""
        return CellCache(
            _at(self.xh, t), _at(self.gates, t), _at(self.c, t), _at(self.tanh_c, t),
            _at(self.uh, t), self.state_mask, _at(self.c_prev, t), self.capped,
        )


def _at(a, t):
    return None if a is None else a[t]


def new_cache(
    kind: str, shape, m: int, n: int, dtype=np.float64, empty=np.empty, c=None
) -> CellCache:
    """Uninitialised activation buffers of one step (shape (B,)) or of a
    window (shape (T, B)), or of either for a stack of layers (a leading L),
    from `empty`; the caller writes [x, h_prev] into xh and the forward
    steps fill the rest.  `c`, an array of the shape of the cell states,
    holds them instead of a new one."""

    def buf(width):
        return empty((*shape, width), dtype)

    uh = buf(2 * n) if kind == "rlstm" else None
    return CellCache(buf(m + n), buf(4 * n), buf(n) if c is None else c, buf(n), uh)


def new_work(kind: str, shape, n: int, dtype=np.float64) -> tuple:
    """Scratch of a forward step on (*shape, .) arrays: the product of [x, h]
    (width 4n, or 2n for the rewired cell), gates i, j, f, o and one more."""
    pre = np.empty((*shape, (4 if kind == "lstm" else 2) * n), dtype)
    *gates, spare = np.empty((5, *shape, n), dtype)
    return pre, tuple(gates), spare


def _update_c(i, j, f, c_prev, capped: bool, out, spare):
    """c = f*c_prev + g*j into `out` (which may be c_prev), with g = min(i, 1 - f)
    when capped, which keeps |c| bounded by 1 when it starts there, else i."""
    g = np.minimum(i, np.subtract(1.0, f, out=spare), out=spare) if capped else i
    c = np.multiply(f, c_prev, out=out)
    c += np.multiply(g, j, out=spare)
    return c


def _update_c_grads(dc, i, j, f, c_prev, capped: bool):
    """(di, dj, df, dc_prev), the gradients of _update_c's inputs given dc.
    min(i, 1 - f) routes its subgradient to the smaller argument; on ties the
    input-gate branch wins (fixed for determinism)."""
    df = dc * c_prev
    dg = dc * j
    dc_prev = dc * f
    if not capped:
        return dg, dc * i, df, dc_prev
    one_minus_f = 1.0 - f
    # 1.0 or 0.0: a product with it has the bits of one with the bool array,
    # which casts at every call and costs twice as much
    take_i = (i <= one_minus_f).astype(i.dtype)
    return dg * take_i, dc * np.minimum(i, one_minus_f), df - dg * (1.0 - take_i), dc_prev


def lstm_forward(weights, cache: CellCache, h, work):
    """One LSTM step with forward_weights(p) from cache.xh and cache.c_prev:
    writes c, tanh(c) and (unless None) the gate values into the cache and
    the new h into `h`.  With cache.capped the input gate is min(i, 1 - f)."""
    w, b = weights
    pre, (_, j, _, _), spare = work
    n = j.shape[-1]
    pre = gemm(cache.xh, w, out=pre)
    pre += b
    np.tanh(pre[..., n : 2 * n], out=j)
    sigmoid_of_negated(pre, out=pre)  # j's block is not read again
    i, f, o = pre[..., :n], pre[..., 2 * n : 3 * n], pre[..., 3 * n :]
    c = _update_c(i, j, f, cache.c_prev, cache.capped, cache.c, spare)
    if cache.gates is not None:
        np.concatenate((i, j, f, o), axis=-1, out=cache.gates)
    np.multiply(o, np.tanh(c, out=cache.tanh_c), out=h)


def rlstm_forward(weights, cache: CellCache, h, work):
    """One rewired-LSTM step, as lstm_forward: f is computed from i*j and
    h_prev, the input gate is capped at 1 - f, and o reads the cell state,
    times cache.state_mask when there is one."""
    w_ij, w_f, w_oc, b_ij, b_f, b_o = weights
    pre, gates, spare = work
    i, j, f, o = gates
    n = i.shape[-1]
    pre = gemm(cache.xh, w_ij, out=pre)
    pre += b_ij
    sigmoid_of_negated(pre[..., :n], out=i)
    np.tanh(pre[..., n:], out=j)
    np.concatenate((np.multiply(i, j, out=spare), cache.xh[..., -n:]), axis=-1, out=cache.uh)
    f = gemm(cache.uh, w_f, out=f)
    f += b_f
    sigmoid_of_negated(f, out=f)
    c = _update_c(i, j, f, cache.c_prev, True, cache.c, spare)
    cm = c if cache.state_mask is None else np.multiply(c, cache.state_mask, out=spare)
    o = gemm(cm, w_oc, out=o)
    o += b_o
    sigmoid_of_negated(o, out=o)
    if cache.gates is not None:
        np.concatenate(gates, axis=-1, out=cache.gates)
    np.multiply(o, np.tanh(c, out=cache.tanh_c), out=h)


def _backward_start(cache: CellCache, grad_c, grad_h):
    """What both backward steps start from: the gates (i, j, f, o) as
    contiguous copies, their sigmoid derivatives in one pass (j's is not
    read), do, and dc through h = o*tanh(c)."""
    gates = _block_copies(cache.gates, 4)
    tanh_c = cache.tanh_c.copy()  # read twice
    dc = grad_c + grad_h * gates[3] * dtanh_from_value(tanh_c)
    return gates, dsigmoid_from_value(gates), grad_h * tanh_c, dc


def lstm_backward(p: LstmParams, cache: CellCache, grad_c, grad_h):
    """Gradients of a scalar loss through one LSTM step: (dc_prev, dh_prev,
    dx).  The pre-activation gradients of i, j, f, o are written over
    cache.gates, once, after they are formed."""
    (i, j, f, _), (dsig_i, _, dsig_f, dsig_o), do, dc = _backward_start(cache, grad_c, grad_h)
    di, dj, df, dc_prev = _update_c_grads(dc, i, j, f, cache.c_prev, cache.capped)
    dpre = (di * dsig_i, dj * dtanh_from_value(j), df * dsig_f, do * dsig_o)
    np.concatenate(dpre, axis=-1, out=cache.gates)
    dxh = gemm(cache.gates, p.w)
    m = p.input_size
    return dc_prev, dxh[..., m:], dxh[..., :m]


def rlstm_backward(p: RlstmParams, cache: CellCache, grad_c, grad_h):
    """Like lstm_backward, through one rewired-LSTM step."""
    n, m = p.state_size, p.input_size
    (i, j, f, _), (dsig_i, _, dsig_f, dsig_o), do, dc = _backward_start(cache, grad_c, grad_h)
    dpre_o = do * dsig_o
    dcm = gemm(dpre_o, p.w_oc)
    dc = dc + (dcm if cache.state_mask is None else dcm * cache.state_mask)
    di, dj, df, dc_prev = _update_c_grads(dc, i, j, f, cache.c_prev, True)
    dpre_f = df * dsig_f
    duh = gemm(dpre_f, p.w_f)
    du = duh[..., :n].copy()  # read twice, and a block of duh is not contiguous
    di = di + du * j
    dj = dj + du * i
    dpre = (di * dsig_i, dj * dtanh_from_value(j), dpre_f, dpre_o)
    np.concatenate(dpre, axis=-1, out=cache.gates)
    dxh = gemm(cache.gates[..., : 2 * n], p.w_ij)
    return dc_prev, dxh[..., m:] + duh[..., n:], dxh[..., :m]


def cell_backward(p, cache, grad_c, grad_h):
    """Dispatch on the parameter type."""
    if isinstance(p, RlstmParams):
        return rlstm_backward(p, cache, grad_c, grad_h)
    if isinstance(p, LstmParams):
        return lstm_backward(p, cache, grad_c, grad_h)
    raise TypeError(f"unknown cell parameters {type(p)}")


def _rows(a, lead: int):
    """a with its step axes folded into one rows axis, after the `lead`
    leading axes (1 for a stack of layers, else 0)."""
    return a.reshape(*a.shape[:lead], -1, a.shape[-1])


def weight_grads(p, cache: CellCache, out):
    """Weight and bias gradients from a cache whose gates hold pre-activation
    gradients (after the backward of each of its steps): one gemm per fused
    matrix and one sum for the bias, over every row of the cache, and for a
    stack of layers one stacked gemm, a product per layer.  They are written
    into `out`, parameters of p's shapes, which is returned."""
    lead = p.b.ndim - 1
    dpre = _rows(cache.gates, lead)
    out.b[...] = dpre.sum(axis=-2)
    if isinstance(p, LstmParams):
        out.w[...] = gemm(dpre.mT, _rows(cache.xh, lead))
        return out
    n = p.state_size
    dpre_ij, dpre_f, dpre_o = dpre[..., : 2 * n], dpre[..., 2 * n : 3 * n], dpre[..., 3 * n :]
    cm = cache.c if cache.state_mask is None else cache.c * cache.state_mask
    out.w_ij[...] = gemm(dpre_ij.mT, _rows(cache.xh, lead))
    out.w_f[...] = gemm(dpre_f.mT, _rows(cache.uh, lead))
    out.w_oc[...] = gemm(dpre_o.mT, _rows(cm, lead))
    return out


def _chrono_forget_bias(rng: Rng, n: int, t_max: float):
    # b_f ~ ln(U(1, t_max - 1)) spreads initial memory timescales up to t_max.
    if not t_max > 2.0:
        raise ValueError(f"t_max must exceed 2 (empty init range), got {t_max}")
    return np.log(rng.uniform(1.0, t_max - 1.0, n))


def draw_params(rng: Rng, p, t_max: float):
    """Every weight block U(-1/sqrt(n), 1/sqrt(n)) in gate_views order, then
    the chrono forget bias, written into p; the other biases are left as
    they are (zero in new_params)."""
    views = gate_views(p)
    scale = 1.0 / np.sqrt(p.state_size)
    for name, block in views.items():
        if name.startswith("w_"):
            block[...] = rng.uniform(-scale, scale, block.shape)
    views["b_f"][...] = _chrono_forget_bias(rng, p.state_size, t_max)
    return p


def new_params(kind: str, m: int, n: int, dtype=np.float64, empty=np.zeros):
    """Cell parameters of these sizes with arrays from `empty`, not drawn."""
    if kind == "lstm":
        return LstmParams(empty((4 * n, m + n), dtype), empty((4 * n,), dtype))
    if kind == "rlstm":
        shapes = ((2 * n, m + n), (n, 2 * n), (n, n), (4 * n,))
        return RlstmParams(*(empty(shape, dtype) for shape in shapes))
    raise ValueError(f"unknown cell kind '{kind}' (expected 'lstm' or 'rlstm')")


def init_cell_params(rng: Rng, m: int, n: int, kind: str, t_max: float, dtype=np.float64):
    return draw_params(rng, new_params(kind, m, n, dtype), t_max)
