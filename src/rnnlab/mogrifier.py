"""Mutual gating between the recurrent state and the cell input.

For round counts r >= 1 the input and state take turns rescaling each other
through 2*sigmoid gates; zero weights make every gate the identity.  Gate
matrices may be full or low-rank factored.  The returned pair is the top of
each ladder, which coincides with indices 2*floor(r/2) for the state and
2*floor((r+1)/2) - 1 for the input.

As in cells, a step, forward or backward, also runs a stack of layers as one
(gate matrices with a leading layer axis, (L, B, .) inputs) on a cache of one
step or of a window.  The forward step stores its gate values, unless the
cache has none (a scoring pass), the backward step stores each round's
pre-activation gradient over them, and `weight_grads` forms the gate-matrix
gradients over every row of a cache at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numerics import Rng, gemm, sigmoid


@dataclass
class LowRank:
    """Factored matrix u @ v with u: (d_out, k), v: (k, d_in)."""

    u: np.ndarray
    v: np.ndarray


@dataclass
class MogrifierParams:
    rounds: int
    x_gates: list = field(default_factory=list)  # odd rounds: gate x from h, (m, n) each
    h_gates: list = field(default_factory=list)  # even rounds: gate h from x, (n, m) each

    def validate(self):
        if self.rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {self.rounds}")
        want_x = (self.rounds + 1) // 2
        want_h = self.rounds // 2
        if len(self.x_gates) != want_x or len(self.h_gates) != want_h:
            raise ValueError(
                f"rounds={self.rounds} needs {want_x} x-gates and {want_h} h-gates, "
                f"got {len(self.x_gates)} and {len(self.h_gates)}"
            )

    @cached_property
    def forward_views(self) -> list:
        """Per round, the transposed factors that the gate's pre-activation is
        applied through: [w.mT] for a full matrix, [v.mT, u.mT] for a factored
        one.  Made once per parameter object (the stacked parameters of a
        wavefront tick are made once per tick key); they view the gate
        matrices, not a matrix rebound."""
        gates = [
            self.x_gates[index // 2] if index % 2 == 1 else self.h_gates[index // 2 - 1]
            for index in range(1, self.rounds + 1)
        ]
        return [[w.v.mT, w.u.mT] if isinstance(w, LowRank) else [w.mT] for w in gates]


@dataclass
class MogrifyCache:
    """Activations of one step, arrays (B, .), or of a window, arrays (T, B, .)
    of which `at(t)` views one step."""

    x_ladder: list  # x^-1, x^1, x^3, ...
    h_ladder: list  # h^0, h^2, h^4, ...
    gates: list | None  # per round: 2*sigmoid gate values, then (backward) their
    # pre-activation gradients; None in a scoring cache, which no backward pass reads

    def at(self, t) -> "MogrifyCache":
        gates = None if self.gates is None else [g[t] for g in self.gates]
        return MogrifyCache([x[t] for x in self.x_ladder], [h[t] for h in self.h_ladder], gates)


def new_cache(
    p: MogrifierParams, shape, m: int, n: int, dtype=np.float64, tops=None, empty=np.empty
):
    """Uninitialised ladders and gates of one step (shape (B,)) or of a window
    (shape (T, B)), from `empty`; mogrify_forward fills them.  `tops`, an
    (x, h) pair of arrays, holds the top of each ladder instead of new ones,
    so the outputs land where their consumer reads them."""

    def buf(width):
        return empty((*shape, width), dtype)

    x_top, h_top = tops if tops is not None else (buf(m), buf(n))
    return MogrifyCache(
        x_ladder=[buf(m) for _ in range((p.rounds + 1) // 2)] + [x_top],
        h_ladder=[buf(n) for _ in range(p.rounds // 2)] + [h_top],
        gates=[buf(m if index % 2 == 1 else n) for index in range(1, p.rounds + 1)],
    )


def mogrify_forward(p: MogrifierParams, h: np.ndarray, x: np.ndarray, cache=None):
    """Run the rounds; returns (h out, x out, cache).  With `cache` (a step of
    new_cache) the inputs are copied into the bottom of its ladders, unless
    they are those bottoms already, and every activation is written into it
    (the caller validates p); without one, p is validated and a fresh cache is
    made whose ladders start at h and x."""
    if cache is None:
        p.validate()
        cache = new_cache(p, x.shape[:-1], x.shape[-1], h.shape[-1], np.result_type(h, x))
        cache.x_ladder[0], cache.h_ladder[0] = x, h
    xs, hs = cache.x_ladder, cache.h_ladder
    if xs[0] is not x:
        xs[0][...] = x
    if hs[0] is not h:
        hs[0][...] = h
    for index, factors in enumerate(p.forward_views, 1):
        k = index // 2
        odd = index % 2 == 1
        gate = hs[k] if odd else xs[k]
        scaled, out = (xs[k], xs[k + 1]) if odd else (hs[k - 1], hs[k])
        # The gate is formed in an array of its own and then stored: elementwise
        # work on the cache's views costs more where they are strided (stacked
        # layers of a window).
        for w_t in factors:
            gate = gemm(gate, w_t)
        sigmoid(gate, out=gate)
        gate *= 2.0
        if cache.gates is not None:
            cache.gates[index - 1][...] = gate
        np.multiply(gate, scaled, out=out)
    return hs[-1], xs[-1], cache


def _input_grad(w, dpre):
    """Gradient of pre = w(applied_to) with respect to applied_to."""
    if isinstance(w, LowRank):
        return gemm(gemm(dpre, w.u), w.v)
    return gemm(dpre, w)


def mogrify_backward(p: MogrifierParams, cache: MogrifyCache, grad_h_out, grad_x_out):
    """Exact gradients through the gating ladder: (dpre, dh, dx), where dpre,
    the per-round pre-activation gradients, is written over cache.gates, each
    round's once, after it is formed.

    d(2*sigmoid)/dpre written via the gate value g: g * (1 - g/2).
    """
    dh = grad_h_out
    dx = grad_x_out
    xs, hs = cache.x_ladder, cache.h_ladder
    for index in range(p.rounds, 0, -1):
        k = index // 2
        stored = cache.gates[index - 1]
        gate = stored.copy()  # read three times, and a copy is contiguous where stored is not
        if index % 2 == 1:
            dgate = dx * xs[k]
            dx = dx * gate
            dpre = dgate * gate * (1.0 - 0.5 * gate)
            dh = dh + _input_grad(p.x_gates[k], dpre)
        else:
            dgate = dh * hs[k - 1]
            dh = dh * gate
            dpre = dgate * gate * (1.0 - 0.5 * gate)
            dx = dx + _input_grad(p.h_gates[k - 1], dpre)
        stored[...] = dpre
    return cache.gates, dh, dx


def _gate_weight_grad(w, dpre, applied_to, out):
    # The rows of dpre and applied_to follow any leading layer axis, as in w.
    lead = (w.u if isinstance(w, LowRank) else w).ndim - 2
    dpre, applied_to = (a.reshape(*a.shape[:lead], -1, a.shape[-1]) for a in (dpre, applied_to))
    if isinstance(w, LowRank):
        out.u[...] = gemm(dpre.mT, gemm(applied_to, w.v.mT))
        out.v[...] = gemm(gemm(dpre, w.u).mT, applied_to)
    else:
        out[...] = gemm(dpre.mT, applied_to)


def weight_grads(p: MogrifierParams, cache: MogrifyCache, out) -> MogrifierParams:
    """Gate-matrix gradients from a cache whose gates hold pre-activation
    gradients: one gemm per full matrix (four per factored one) over every
    row of the cache, and for a stack of layers one stacked gemm, a product
    per layer; written into `out`, parameters of p's shapes, which is
    returned."""
    for index in range(1, p.rounds + 1):
        k = index // 2
        dpre = cache.gates[index - 1]
        if index % 2 == 1:
            _gate_weight_grad(p.x_gates[k], dpre, cache.h_ladder[k], out.x_gates[k])
        else:
            _gate_weight_grad(p.h_gates[k - 1], dpre, cache.x_ladder[k], out.h_gates[k - 1])
    return out


def new_params(
    m: int, n: int, rounds: int, rank: int = 0, dtype=np.float64, empty=np.zeros
) -> MogrifierParams:
    """Gate matrices for these sizes with arrays from `empty`, not drawn;
    rank 0 means full matrices."""
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")

    def gate(d_out, d_in):
        if rank > 0:
            return LowRank(u=empty((d_out, rank), dtype), v=empty((rank, d_in), dtype))
        return empty((d_out, d_in), dtype)

    return MogrifierParams(
        rounds=rounds,
        x_gates=[gate(m, n) for _ in range((rounds + 1) // 2)],
        h_gates=[gate(n, m) for _ in range(rounds // 2)],
    )


def draw_params(rng: Rng, p: MogrifierParams, n: int) -> MogrifierParams:
    """Every gate matrix U(-1/sqrt(n), 1/sqrt(n)) like the cell weights, in
    round order (a factored gate u, then v), written into p."""
    scale = 1.0 / np.sqrt(n)
    for index in range(1, p.rounds + 1):
        gate = p.x_gates[index // 2] if index % 2 == 1 else p.h_gates[index // 2 - 1]
        for block in (gate.u, gate.v) if isinstance(gate, LowRank) else (gate,):
            block[...] = rng.uniform(-scale, scale, block.shape)
    return p


def init_mogrifier_params(
    rng: Rng, m: int, n: int, rounds: int, rank: int = 0, dtype=np.float64
) -> MogrifierParams:
    return draw_params(rng, new_params(m, n, rounds, rank, dtype), n)
