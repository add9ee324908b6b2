"""Mutual gating between the recurrent state and the cell input.

For round counts r >= 1 the input and state take turns rescaling each other
through 2*sigmoid gates; zero weights make every gate the identity.  Gate
matrices may be full or low-rank factored.  The returned pair is the top of
each ladder, which coincides with indices 2*floor(r/2) for the state and
2*floor((r+1)/2) - 1 for the input.

As in cells, a step, forward or backward, also runs a stack of layers as one
(gate matrices with a leading layer axis, (L, B, .) inputs) on a cache of one
step or of a window, which its caller cut and, for the forward step, whose
ladder bottoms it wrote.  The forward step runs the rounds that `bind` binds
once per window shape to `forward_weights(p)` (copies made once per window),
the cache's rungs and new_work scratch, where each gate is formed and then
stored (unless the cache has none: a scoring pass).  The backward step reads
p itself and stores each round's pre-activation gradient over them, and
`weight_grads` forms the gate-matrix gradients over every row of a cache at
once.  MogrifierParams.round_gates and MogrifyCache.rounds map a round to
its gate matrix and ladder rungs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numerics import Rng, gemm, signed_copies, sigmoid_of_negated


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
    def round_gates(self) -> list:
        """The gate matrices in round order: round r's is [r - 1], an x-gate
        for odd r and an h-gate for even r.  Made once per parameter object;
        they view the gate matrices, not a matrix rebound."""
        return [
            self.x_gates[r // 2] if r % 2 else self.h_gates[r // 2 - 1]
            for r in range(1, self.rounds + 1)
        ]


def _factors(w) -> tuple:
    """The factors a gate's input is applied through: (v, u), or (w,)."""
    return (w.v, w.u) if isinstance(w, LowRank) else (w,)


def forward_weights(p: MogrifierParams, out=None) -> list:
    """Per round, the factors that mogrify_forward applies the gate's input
    through, each transposed, (..., in, out), as a contiguous copy, the last
    negated: as cells.forward_weights, and written into out's when given."""
    return [
        signed_copies([f.mT for f in _factors(w)], [(1,)] * isinstance(w, LowRank) + [(-1,)], o)
        for w, o in zip(p.round_gates, out or [None] * p.rounds)
    ]


def new_work(p: MogrifierParams, shape, dtype=np.float64) -> list:
    """Scratch of a forward step on (*shape, .) arrays: per round, each factor's product."""
    return [[np.empty((*shape, f.shape[-2]), dtype) for f in _factors(w)] for w in p.round_gates]


def bind(weights: list, cache: "MogrifyCache", work: list) -> list:
    """mogrify_forward's rounds with forward_weights(p), on `cache` (cut for p)
    and new_work scratch: (gate input, (factor, product)s, scaled, out, stored)."""
    stored = cache.gates or [None] * len(weights)
    return [(gate, tuple(zip(factors, products)), scaled, out, into) for (gate, scaled, out),
            factors, products, into in zip(cache.rounds, weights, work, stored)]


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

    @cached_property
    def rounds(self) -> list:
        """Per round, in order, (gate input, scaled, out).  The ladders
        interleaved are x, h, then each round's output, and round r gates the
        rung before its output by a function of the rung before that.  Made
        once per cache, as MogrifierParams.round_gates."""
        xs, hs = self.x_ladder, self.h_ladder
        rungs = [rung for pair in zip(xs, hs) for rung in pair] + xs[len(hs):]
        return [(rungs[r], rungs[r - 1], rungs[r + 1]) for r in range(1, len(rungs) - 1)]


def new_cache(
    p: MogrifierParams, shape, m: int, n: int, dtype=np.float64, tops=None, empty=np.empty
):
    """Uninitialised ladders and gates of one step (shape (B,)) or of a window
    (shape (T, B)), from `empty`; the caller writes the inputs into the
    bottom of the ladders and mogrify_forward fills the rest.  `tops`, an
    (x, h) pair of arrays, holds the top of each ladder instead of new ones,
    so the outputs land where their consumer reads them."""

    def buf(width):
        return empty((*shape, width), dtype)

    x_top, h_top = tops if tops is not None else (buf(m), buf(n))
    xs, hs = [buf(m) for _ in p.x_gates] + [x_top], [buf(n) for _ in p.h_gates] + [h_top]
    cache = MogrifyCache(xs, hs, gates=None)
    cache.gates = [buf(scaled.shape[-1]) for _, scaled, _ in cache.rounds]
    return cache


def mogrify_forward(rounds: list):
    """Run the rounds that bind() bound, from the ladder bottoms that the
    caller wrote; the outputs are the cache's ladder tops."""
    for gate, products, scaled, out, stored in rounds:
        # The gate is formed in an array of its own and then stored: elementwise
        # work on the cache's views costs more where they are strided (stacked
        # layers of a window).
        for w, product in products:
            gate = gemm(gate, w, out=product)
        sigmoid_of_negated(gate, out=gate)
        np.add(gate, gate, out=gate)  # 2 * gate, as exact
        if stored is not None:
            stored[...] = gate
        np.multiply(gate, scaled, out=out)


def _input_grad(w, dpre):
    """Gradient of pre = w(applied_to) with respect to applied_to."""
    if isinstance(w, LowRank):
        return gemm(gemm(dpre, w.u), w.v)
    return gemm(dpre, w)


def mogrify_backward(p: MogrifierParams, cache: MogrifyCache, grad_h_out, grad_x_out):
    """Exact gradients through the gating ladder: (dh, dx).  The per-round
    pre-activation gradients are written over cache.gates, each round's once,
    after it is formed.

    d(2*sigmoid)/dpre written via the gate value g: g * (1 - g/2).
    """
    # The gradients on a round's output and on its gate input, from the last
    # round down; the last round's output is x for odd rounds, else h.
    d_out, d_in = (grad_x_out, grad_h_out) if p.rounds % 2 else (grad_h_out, grad_x_out)
    for (_, scaled, _), w, stored in reversed(list(zip(cache.rounds, p.round_gates, cache.gates))):
        gate = stored.copy()  # read three times, and a copy is contiguous where stored is not
        dgate = d_out * scaled
        dpre = dgate * gate * (1.0 - 0.5 * gate)
        d_out, d_in = d_in + _input_grad(w, dpre), d_out * gate
        stored[...] = dpre
    return d_out, d_in


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
    for (gate_input, _, _), w, dpre, grad in zip(
        cache.rounds, p.round_gates, cache.gates, out.round_gates
    ):
        _gate_weight_grad(w, dpre, gate_input, grad)
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
    for gate in p.round_gates:
        for block in (gate.u, gate.v) if isinstance(gate, LowRank) else (gate,):
            block[...] = rng.uniform(-scale, scale, block.shape)
    return p


def init_mogrifier_params(
    rng: Rng, m: int, n: int, rounds: int, rank: int = 0, dtype=np.float64
) -> MogrifierParams:
    return draw_params(rng, new_params(m, n, rounds, rank, dtype), n)
