"""Recurrent cells: the classic LSTM (optionally with a capped input gate) and
a rewired variant whose forget gate is computed from the proposed update and
whose output gate reads the cell state only.

Gates are fused: the LSTM applies w (4n, m+n) to [x, h] for i, j, f, o; the
rewired cell applies w_ij (2n, m+n) to [x, h] for i and j, w_f (n, 2n) to
[i*j, h] for f and w_oc (n, n) to the cell state for o.  b (4n,) holds the
biases of i, j, f, o; `gate_views` names the per-gate blocks.

A step, forward or backward, also runs the layers of a wavefront tick as
one: parameters with a leading layer axis, (L, 4n, m+n) and so on, and states
and caches of (L, B, .) arrays.  A step runs on a cache that its caller cut
(new_cache: a step of (B, .) or (L, B, .) arrays, or a window of (T, B, .)
arrays viewed step by step with `at(t)`) and whose xh it filled with
[x, h_prev]; the step computes, stores and returns, and leaves validation
and the finiteness check to its caller.  A forward step multiplies by
`forward_weights(p)`, contiguous transposed copies that its caller makes
once per window; a backward step reads p itself.  Backward steps write
pre-activation gradients over the gate values; `weight_grads` then takes one
gemm per fused matrix over all the rows of a cache.  Both form their values
in arrays of their own and store them into the cache once: elementwise work
on the cache's views, strided when layers are stacked, costs two to three
times as much.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Rng, dsigmoid_from_value, dtanh_from_value, gemm, sigmoid


@dataclass
class CellState:
    c: np.ndarray
    h: np.ndarray

    def copy(self) -> "CellState":
        return CellState(self.c.copy(), self.h.copy())

    @classmethod
    def zeros(cls, batch: int, size: int, dtype=np.float64) -> "CellState":
        return cls(np.zeros((batch, size), dtype=dtype), np.zeros((batch, size), dtype=dtype))


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


def forward_weights(p) -> tuple:
    """What a forward step of p's cell reads, as contiguous copies: each
    weight matrix transposed, (..., in, out), and each bias with a batch
    axis, (..., 1, out).  (w, b) for the LSTM; (w_ij, w_f, w_oc, b_ij, b_f,
    b_o) for the rewired cell.  BLAS multiplies by a contiguous (in, out)
    matrix faster than by the strided transposed view of the parameters.
    The caller makes them once per window; a copy holds the weights as they
    were when it was made, so none is kept on p, whose arrays are updated in
    place (the optimizer, dynamic evaluation, gradcheck's perturbations)."""
    b = p.b[..., None, :]
    if isinstance(p, LstmParams):
        return np.ascontiguousarray(p.w.mT), np.ascontiguousarray(b)
    n = p.state_size
    blocks = (slice(None, 2 * n), slice(2 * n, 3 * n), slice(3 * n, None))  # ij, f, o
    return (
        *(np.ascontiguousarray(w.mT) for w in (p.w_ij, p.w_f, p.w_oc)),
        *(np.ascontiguousarray(b[..., block]) for block in blocks),
    )


def _blocks(a, count: int):
    """Split the last axis into `count` equal views."""
    width = a.shape[-1] // count
    return [a[..., k * width : (k + 1) * width] for k in range(count)]


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


def _update_c(i, j, f, c_prev, capped: bool, out):
    """c = f*c_prev + g*j into `out`, with the input gate g = min(i, 1 - f)
    when capped, which keeps |c| bounded by 1 when it starts there, else i."""
    g = np.minimum(i, 1.0 - f) if capped else i
    c = np.multiply(f, c_prev, out=out)
    c += g * j
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


def lstm_forward(weights, state: CellState, cache: CellCache, cap_input_gate: bool = True):
    """One LSTM step with forward_weights(p) on `cache`, whose xh holds
    [x, state.h]: stores the activations and returns the new state, whose c
    is cache.c.  With the cap the effective input gate is min(i, 1 - f)."""
    # As in rlstm_forward, the gates are formed in the gemm output, an array
    # of their own, and written to the cache once.
    w, b = weights
    pre = gemm(cache.xh, w) + b
    j = np.tanh(_blocks(pre, 4)[1])
    i, _, f, o = _blocks(sigmoid(pre, out=pre), 4)
    c = _update_c(i, j, f, state.c, cap_input_gate, cache.c)
    if cache.gates is not None:
        np.concatenate((i, j, f, o), axis=-1, out=cache.gates)
    cache.c_prev, cache.capped = state.c, cap_input_gate
    return CellState(c, o * np.tanh(c, out=cache.tanh_c))


def rlstm_forward(weights, state: CellState, cache: CellCache, state_mask=None):
    """One rewired-LSTM step with forward_weights(p) on `cache`, as for
    lstm_forward: f is computed from i*j and h_prev, the input gate is
    capped at 1 - f, and o reads the (optionally masked) cell state."""
    w_ij, w_f, w_oc, b_ij, b_f, b_o = weights
    # The gates are formed in arrays of their own and written to the cache at
    # once: elementwise work on the cache's gate blocks, strided views when
    # layers are stacked, costs two to three times as much.
    pre_i, pre_j = _blocks(gemm(cache.xh, w_ij) + b_ij, 2)
    i = sigmoid(pre_i, out=np.empty_like(pre_i))
    j = np.tanh(pre_j)
    np.concatenate((i * j, state.h), axis=-1, out=cache.uh)
    f = gemm(cache.uh, w_f) + b_f
    sigmoid(f, out=f)
    c = _update_c(i, j, f, state.c, True, cache.c)
    cm = c if state_mask is None else c * state_mask
    o = gemm(cm, w_oc) + b_o
    sigmoid(o, out=o)
    if cache.gates is not None:
        np.concatenate((i, j, f, o), axis=-1, out=cache.gates)
    cache.c_prev, cache.state_mask = state.c, state_mask
    return CellState(c, o * np.tanh(c, out=cache.tanh_c))


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
