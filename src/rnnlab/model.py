"""The full language model: embedding, per-layer mogrified recurrent cells with
residual input sums, four dropout-mask families, tied output embedding, and the
multi-sample training objective over truncated-BPTT windows.

Layer wiring per timestep:
  x0      = embed(token) * mask_in
  layer 1 consumes mogrify(h1_masked_prev, x0)
  layer l>1 consumes mogrify(hl_masked_prev, sum of lower layers' masked outputs)
  logits  = (sum over layers of masked outputs) * mask_out @ e_out + b_out
The state mask is sampled once per window and reused at every timestep
(variational dropout); for rewired cells it is also applied to the cell state
inside the output gate.

The layers are one stack: every parameter of a layer is an (L, ...) array,
a zero-copy view of the parameter vector whose [l] is layer l's, and the
carried states are one CellState of (L, B, n) arrays.  A window runs as a
layer wavefront (Appleyard et al. 2016, arXiv 1604.01946).  Layer l's step
t needs only layer l-1's step t and its own step t-1, so at tick k layer l
runs its step k - l, and the layers in range run as one step: one mogrifier
and one cell call on (L, B, .) arrays.  The backward pass walks the same
ticks in reverse: layer l's step t needs layer l+1's step t and its own step
t+1, which every later tick has run.  The window buffers are (L, T, B, .),
one (T, B, .) window per layer, from which each weight gradient is one
stacked gemm, a product per layer.  A tick plan, built once per window
shape, owns them in one block, with each tick's views of them (through
skewed (L, T + L - 1, B, .) views whose [l, k] is layer l's step at tick k),
of the weight copies and of step scratch; a window's cache holds its plan
until backward_window spends it.  Every sum keeps the order of a
layer-by-layer loop: the schedule changes no bit.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import cells, mogrifier
from .cells import CellState
from .numerics import DivergenceError, Rng, bernoulli_mask, log_softmax, log_sum_exp
from .numerics import gemm
from .ptree import map_arrays, named_arrays, stacked_views, vector_field
# accumulate is unused here; perfbench/selftest.py checks that its tracer rebinds model.accumulate.
from .ptree import accumulate  # noqa: F401


@dataclass
class ModelConfig:
    layers: int = 2
    state_size: int = 128  # shared input/state width; residual sums need them equal
    vocab_size: int = field(kw_only=True)
    cell: str = "rlstm"  # "lstm" | "rlstm"
    cap_input_gate: bool = True  # lstm only; rlstm caps by construction
    mogrifier_rounds: int = 4
    mogrifier_rank: int = 0  # 0 = full matrices
    keep_in: float = 1.0
    keep_cell: float = 1.0
    keep_state: float = 1.0
    keep_out: float = 1.0
    tie_embeddings: bool = False
    dropout_samples: int = 1
    residual_includes_embedding: bool = False
    input_mask_rows: bool = False  # drop whole embedding vectors instead of elements
    t_max: float = math.e**3
    dtype: str = "float64"

    def validate(self):
        for name, low in (
            ("layers", 1), ("state_size", 1), ("vocab_size", 2), ("dropout_samples", 1),
            ("mogrifier_rounds", 0), ("mogrifier_rank", 0),
        ):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not 2.0 < self.t_max < math.inf:
            raise ValueError(f"t_max must exceed 2 and be finite, got {self.t_max}")
        if self.cell not in ("lstm", "rlstm"):
            raise ValueError(f"cell must be 'lstm' or 'rlstm', got '{self.cell}'")
        for name in ("keep_in", "keep_cell", "keep_state", "keep_out"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        if self.dtype not in ("float64", "float32"):
            raise ValueError(f"dtype must be float64 or float32, got '{self.dtype}'")
        return self

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32


@dataclass
class LayerParams:
    cell: object  # LstmParams | RlstmParams
    mog: mogrifier.MogrifierParams


@dataclass
class ModelParams:
    e_in: np.ndarray  # (V, n)
    b_out: np.ndarray  # (V,)
    layers: LayerParams  # the stack: (L, ...) arrays, [l] is layer l's
    e_out_untied: np.ndarray | None = None  # (n, V) when not tied
    tied: bool = True
    vector: np.ndarray | None = vector_field()  # every array above views it

    @property
    def e_out(self) -> np.ndarray:
        # Tied mode shares storage: this is a transpose view of e_in.
        return self.e_in.T if self.tied else self.e_out_untied


@dataclass
class MaskSet:
    """The dropout masks of a window's batch rows.  A family whose keep is 1
    is None: it is not drawn, stored or multiplied in."""

    rows: int  # batch rows: D*B for D stacked draws
    m_in: np.ndarray | None = None  # (T, rows, n)
    m_cell: np.ndarray | None = None  # (L, T, rows, n)
    m_state: np.ndarray | None = None  # (L, rows, n); reused at every timestep of the window
    m_out: np.ndarray | None = None  # (T, rows, n)


@dataclass
class WindowBatch:
    inputs: np.ndarray  # (B, T) token ids
    targets: np.ndarray  # (B, T) token ids, inputs shifted by one
    states: CellState | None = None  # (L, B, n) arrays, None = zeros


def empty_model_params(config: ModelConfig, vector=None) -> ModelParams:
    """Parameters of this config's shapes whose arrays are views into one
    vector, params.vector: `vector` (cast to the model's dtype if it has
    another), or a new zero vector.  The vector holds e_in, b_out, then each
    layer's leaves in canonical order, layer after layer, then e_out_untied;
    params.layers views the layers' blocks as one stack."""
    config.validate()
    n, vocab, dtype, count = config.state_size, config.vocab_size, config.np_dtype, config.layers
    layer, layer_size, _ = _layer_template(
        config.cell, n, config.mogrifier_rounds, config.mogrifier_rank
    )
    sizes = [vocab * n, vocab, count * layer_size, 0 if config.tie_embeddings else n * vocab]
    if vector is None:
        vector = np.zeros(sum(sizes), dtype)
    if vector.size != sum(sizes):
        raise ValueError(f"vector has {vector.size} entries, the model has {sum(sizes)}")
    vector = vector.astype(dtype, copy=False)
    e_in, b_out, layers, e_out = np.split(vector, np.cumsum(sizes)[:-1])
    return ModelParams(
        e_in=e_in.reshape(vocab, n),
        b_out=b_out,
        layers=stacked_views(layer, layers, count),
        e_out_untied=None if config.tie_embeddings else e_out.reshape(n, vocab),
        tied=config.tie_embeddings,
        vector=vector,
    )


@functools.lru_cache(maxsize=None)
def _layer_template(cell: str, n: int, rounds: int, rank: int):
    """One layer's parameters as placeholders of the right shapes, which is
    all that stacked_views reads, their entry count, and placeholders of
    their forward weights, whose shapes a plan's copies take.  Built once per
    shape, keyed on the values of the config fields that fix it (a
    ModelConfig is mutable); nothing writes to it."""
    empty = _Carver()
    layer = LayerParams(
        cell=cells.new_params(cell, n, n, empty=empty),
        mog=mogrifier.new_params(n, n, rounds, rank, empty=empty),
    )
    forward = cells.forward_weights(layer.cell), mogrifier.forward_weights(layer.mog)
    forward = map_arrays(forward, lambda a: empty(a.shape, a.dtype))  # shapes, no memory
    return layer, sum(arr.size for _, arr in named_arrays(layer)), forward


def init_model_params(rng: Rng, config: ModelConfig) -> ModelParams:
    """Embeddings U(-1/sqrt(n), 1/sqrt(n)), then per layer the cell and the
    mogrifier gates, drawn in that order into the layer's views; zero output
    bias."""
    params = empty_model_params(config)
    scale = 1.0 / np.sqrt(config.state_size)
    embeddings = [params.e_in] if params.tied else [params.e_in, params.e_out_untied]
    for table in embeddings:
        table[...] = rng.uniform(-scale, scale, table.shape)
    for l in range(config.layers):
        layer = map_arrays(params.layers, lambda a: a[l])
        cells.draw_params(rng, layer.cell, config.t_max)
        mogrifier.draw_params(rng, layer.mog, config.state_size)
    return params


def sample_masks(
    rng: Rng, config: ModelConfig, batch: int, horizon: int, samples: int = 1
) -> MaskSet:
    """Fresh input/cell/output masks per timestep; one state mask per layer
    shared across the whole window.  Only the families whose keep is below 1
    are drawn; the others are None.

    `samples` independent draws are stacked along the batch axis, draw d in
    rows d*batch:(d+1)*batch.  Each family is drawn once, straight into its
    slot, in the order `samples` separate calls would use the rng: draw 0's
    families, then draw 1's, and so on."""
    n, layers = config.state_size, config.layers
    in_width = 1 if config.input_mask_rows else n  # rows: one draw per embedding vector
    draws = {  # family: (keep, shape of one draw), whose rows axis is second to last
        "m_in": (config.keep_in, (horizon, batch, in_width)),
        "m_cell": (config.keep_cell, (layers, horizon, batch, n)),
        "m_state": (config.keep_state, (layers, batch, n)),
        "m_out": (config.keep_out, (horizon, batch, n)),
    }
    draws = {name: draw for name, draw in draws.items() if draw[0] < 1.0}
    masks = MaskSet(samples * batch, **{
        name: np.empty((*shape[:-2], samples * batch, n), config.np_dtype)
        for name, (_, shape) in draws.items()
    })
    for d in range(samples):
        for name, (keep, shape) in draws.items():
            part = getattr(masks, name)[..., d * batch : (d + 1) * batch, :]
            bernoulli_mask(rng, shape, keep, out=part)
    return masks


def stack_masks(mask_sets: list) -> MaskSet:
    """Stack per-draw mask sets along the batch axis, draw d in rows d*B:(d+1)*B."""
    return MaskSet(sum(m.rows for m in mask_sets), **{
        name: np.concatenate([getattr(m, name) for m in mask_sets], axis=-2)
        for name in ("m_in", "m_cell", "m_state", "m_out")
        if getattr(mask_sets[0], name) is not None
    })


def ones_masks(config: ModelConfig, batch: int, horizon: int) -> MaskSet:
    """Expectation of inverted dropout, deterministic evaluation: every
    family is all ones, so none is stored."""
    return MaskSet(batch)


class WindowBuffers:
    """Lends the last window's plan, with its block, to the next window.  The
    first write to a fresh page is slow (about 0.6 ms per MB on a 2-vCPU
    cloud VM) and a training window at batch 32 needs about 150 MB of
    buffers, so allocating them anew for every window would cost it a fifth
    of its time.  A window of another shape (a shorter last window) gets a
    new plan, in the same block if it fits.  forward_window hands the plan
    back after a scoring or failed window, backward_window when it spends
    the cache that held it."""

    def __init__(self):
        self._plan = None

    def lend(self, key, params, config, masks) -> "_Plan":
        """The last window's plan if it has the shape `key`, else a new plan of
        that shape, built into the last plan's block if that is large enough."""
        plan, self._plan = self._plan, None
        if plan is None or plan.key != key:
            _window_buffers(params, config, key, size := _Carver())  # counts the bytes
            block = None if plan is None or plan.block.size < size.used else plan.block
            plan = None  # free the old block before taking a larger one
            block = np.empty(size.used, np.uint8) if block is None else block
            plan = _Plan(key, params, config, masks, block)
        return plan

    def take_back(self, plan: "_Plan"):
        """Take back the plan that `lend` handed out."""
        self._plan = plan


class _Carver:
    """An np.empty that cuts arrays out of a block one after the other.
    Without a block it only counts the bytes they would take and hands out
    placeholders of the right shape."""

    ALIGN = 64

    def __init__(self, block=None):
        self.block = block
        self.used = 0

    def __call__(self, shape, dtype):
        dtype = np.dtype(dtype)
        start = -(-self.used // self.ALIGN) * self.ALIGN
        self.used = start + math.prod(shape) * dtype.itemsize
        if self.block is None:
            return np.broadcast_to(np.empty((), dtype), shape)
        return self.block[start : self.used].view(dtype).reshape(shape)


@dataclass
class WindowCache:
    """A window run for its backward pass: its plan (window buffers and ticks)
    until backward_window spends the cache and hands the plan to `lender`."""

    plan: "_Plan | None"
    lender: WindowBuffers | None
    inputs: np.ndarray
    masks: MaskSet
    probs: np.ndarray  # (B, T, V)
    temperature: float

    @property
    def cell_caches(self) -> list | None:
        """[t][l] -> layer l's step t of the plan's cell window, made when asked
        for by callers that read the steps (the library reads the window
        through its ticks), or None once the cache is spent."""
        if self.plan is None:
            return None
        window = self.plan.cell_window
        layers, horizon = window.c.shape[:2]
        return [[window.at((l, t)) for l in range(layers)] for t in range(horizon)]


def _window_buffers(params, config, key, empty):
    """The activation buffers of a window of forward_window's shape `key`,
    allocated with `empty`: a cell cache and a mogrifier cache of (L, T, B, .)
    arrays, whose ladder tops are the two halves of the cell's input, and the
    (T, B, n) input of the output layer.  The cell states are an
    (L, T + 1, B, n) array: [:, 0] the carried-in states, which the caller
    writes, and [:, t + 1] step t's, so c_prev, the states the steps started
    from, is a view of it too.  Without a backward pass the caches hold one
    step, (L, 1, B, .), reused at every tick (c_prev is c, updated in place),
    and no gate values: nothing reads them."""
    batch, horizon, backward = key[-5:-2]
    n, dtype, steps = config.state_size, config.np_dtype, horizon if backward else 1
    shape, first = (config.layers, steps, batch), int(backward)  # the first step's c
    states = empty((config.layers, steps + first, batch, n), dtype)
    cell_window = cells.new_cache(config.cell, shape, n, n, dtype, empty, states[:, first:])
    cell_window.c_prev, cell_window.capped = states[:, :steps], config.cap_input_gate
    tops = (cell_window.xh[..., :n], cell_window.xh[..., n:])
    mog_window = mogrifier.new_cache(params.layers.mog, shape, n, n, dtype, tops, empty)
    if not backward:
        cell_window.gates = mog_window.gates = None
    return cell_window, mog_window, empty((horizon, batch, n), dtype)


def _skewed(a, layers=None):
    """An (L, T, ...) array viewed as (L, T + L - 1, ...) with [l, k] = a[l, k - l]:
    row l shifted right by l, as the wavefront runs; with `layers`, a (T, ...)
    array of the steps is read as the same for each layer.  Only the entries
    with 0 <= k - l < T are a's, and only they may be read or written."""
    if layers is not None:
        a = np.broadcast_to(a, (layers, *a.shape))
    layers, steps = a.shape[:2]
    shape = (layers, steps + layers - 1, *a.shape[2:])
    strides = (a.strides[0] - a.strides[1], *a.strides[1:])
    return np.lib.stride_tricks.as_strided(a, shape, strides)


# Tick k of a plan: layers lo to hi (`rows`) run their steps, and layers `above`
# to hi read sums of those below.  The backward pass reads the first 7 fields.
_Tick = collections.namedtuple("_Tick", (
    "rows m_state mog_cache cell_cache lo hi above x_in x_up h_in h mog_rounds cell_step"
    " xhat xhat_0 xhat_up sums into_0 into_up top"
))


class _Plan:
    """What the ticks of one window shape touch, bound once: the window
    buffers, cut from `block`, which the plan owns, the carried h, copies of
    the forward weights and state mask (each window writes them first),
    scratch, and each tick's views of them.  Tick k runs layers lo to hi
    (layer l its step k - l) on [lo:hi + 1, k] of the skewed window buffers,
    or [lo:hi + 1, 0] of one step's; a scoring plan's ticks of the same rows
    share one _Tick."""

    def __init__(self, key, params, config, masks, block):
        self.key, self.block = key, block
        windows = _window_buffers(params, config, key, _Carver(block))
        self.cell_window, self.mog_window, self.outputs = windows
        (layers, _, batch, n), backward = windows[0].c.shape, windows[0].gates is not None
        horizon, dtype, stack = self.outputs.shape[0], config.np_dtype, params.layers
        *_, forward = _layer_template(config.cell, n, config.mogrifier_rounds, config.mogrifier_rank)
        self.weights = map_arrays(forward, lambda a: np.empty((layers, *a.shape), dtype))
        self.h = np.empty((layers, batch, n), dtype)
        self.m_state = None if masks.m_state is None else np.empty_like(self.h)
        # sums[k % 2][l]: layers 0..l's masked outputs before tick k, left to right
        sums = np.empty((2, layers, batch, n), dtype)
        cell_at, mog_at = self.cell_window, self.mog_window
        if backward:
            cell_at, mog_at = map_arrays(cell_at, _skewed), map_arrays(mog_at, _skewed)
        keys = [  # (lo, hi, position, k % 2)
            (max(0, k - horizon + 1), min(layers - 1, k), k if backward else 0, k % 2)
            for k in range(horizon + layers - 1)
        ]
        work = (cells.new_work(config.cell, (layers, batch), n, dtype),  # a tick takes its rows
                mogrifier.new_work(stack.mog, (layers, batch), dtype))
        xhats = None if masks.m_cell is None else np.empty_like(self.h)
        rowwise = {  # the weights, scratch and h of rows lo:hi + 1, shared by their ticks
            (lo, hi): map_arrays((self.weights, work, self.h), lambda a: a[lo : hi + 1])
            for lo, hi in {key[:2] for key in keys}
        }
        ticks = {key: self._tick(key, sums, cell_at, mog_at, rowwise, xhats) for key in set(keys)}
        self.ticks = [ticks[key] for key in keys]

    def _tick(self, key, sums, cell_at, mog_at, rowwise, xhats):
        lo, hi, position, odd = key
        rows, above = slice(lo, hi + 1), max(lo, 1)  # layers above 0 read sums
        (cell_w, mog_w), (cell_work, mog_work), h = rowwise[lo, hi]
        cell_t, mog_t = cell_at.at((rows, position)), mog_at.at((rows, position))
        cell_t.state_mask = m_state = None if self.m_state is None else self.m_state[rows]
        xhat, x_in, into = h if xhats is None else xhats[rows], mog_t.x_ladder[0], sums[1 - odd]
        return _Tick(
            rows, m_state, mog_t, cell_t, lo, hi, above, x_in[0], x_in[above - lo :],
            mog_t.h_ladder[0], h, mogrifier.bind(mog_w, mog_t, mog_work),
            (cell_w, cell_t, h, cell_work), xhat, xhat[0], xhat[above - lo :],
            sums[odd][above - 1 : hi], into[0], into[above : hi + 1], into[-1],
        )


def _run_steps(params, config, plan, inputs, masks):
    """forward_window's time loop over the plan's ticks: each writes its steps'
    inputs, runs them as one mogrifier and one cell call, and when the top
    layer runs writes outputs[k - L + 1], its sums in a layer-by-layer order."""
    layers, outputs, m_in, m_out = config.layers, plan.outputs, masks.m_in, masks.m_out
    ids = inputs.T
    m_cell = None if masks.m_cell is None else _skewed(masks.m_cell)
    # [l, k]: the token ids and input masks of the step that layer l runs at tick k
    ids_at, m_in_at = _skewed(ids, layers), None if m_in is None else _skewed(m_in, layers)
    cell_step = cells.rlstm_forward if config.cell == "rlstm" else cells.lstm_forward
    for k, (
        rows, m_state, _, _, lo, hi, above, x_in, x_up, h_in, h, mog, cell,
        xhat, xhat_0, xhat_up, sums, into_0, into_up, top,
    ) in enumerate(plan.ticks):
        if lo == 0:
            params.e_in.take(ids[k], axis=0, out=x_in)
            if m_in is not None:
                x_in *= m_in[k]
        if above <= hi and config.residual_includes_embedding:
            x0 = params.e_in[ids_at[above : hi + 1, k]]
            if m_in is not None:
                x0 *= m_in_at[above : hi + 1, k]
            np.add(sums, x0, out=x_up)
        elif above <= hi:
            x_up[...] = sums
        if m_state is None:
            h_in[...] = h
        else:
            np.multiply(h, m_state, out=h_in)
        mogrifier.mogrify_forward(mog)  # its outputs, [x, h] of the cell, land in the cell's xh
        cell_step(*cell)
        if m_cell is not None:
            np.multiply(h, m_cell[rows, k], out=xhat)
        if lo == 0:
            into_0[...] = xhat_0
        if above <= hi:
            np.add(sums, xhat_up, out=into_up)
        if hi == layers - 1:
            t = k - layers + 1
            if m_out is None:
                outputs[t] = top
            else:
                np.multiply(top, m_out[t], out=outputs[t])


def forward_window(
    params: ModelParams,
    config: ModelConfig,
    inputs: np.ndarray,
    masks: MaskSet,
    states: CellState | None = None,
    temperature: float = 1.0,
    buffers: WindowBuffers | None = None,
    backward: bool = True,
):
    """Run one BPTT window. Returns (log_probs (B,T,V), cache, final states).

    `states`, the carried-in states, is a CellState of (L, B, n) arrays, or
    None for zeros; the window reads a copy of it in the model's dtype, and
    the final states are arrays of their own.

    The ticks run on a plan of the window's shape, lent by `buffers` (a
    WindowBuffers) when given, else built for this window.  Its per-layer
    (T, B, .) windows let backward_window form each weight gradient with one
    stacked gemm.  A scoring or failed window hands the plan back at once; a
    window run for its backward pass keeps it in its cache until
    backward_window spends the cache.  With backward=False (scoring only)
    every tick reuses one step's buffers and the cache is None;
    temperature=None then returns the logits in place of the log-probs, for
    the caller to apply its own temperatures with log_softmax."""
    inputs = np.asarray(inputs)
    batch, horizon = inputs.shape
    if temperature is None and backward:
        raise ValueError("a window run for its backward pass needs a temperature")
    if inputs.min() < 0 or inputs.max() >= config.vocab_size:
        raise ValueError("token id out of vocabulary range")
    params.layers.mog.validate()  # once here; the steps below are given caches and skip it
    n, shape = config.state_size, (config.layers, batch, config.state_size)
    if states is not None:
        for name, state in (("c", states.c), ("h", states.h)):
            if np.shape(state) != shape:
                raise ValueError(
                    f"carried state {name} has shape {np.shape(state)}, not (L, B, n) = {shape}"
                )
    key = (*vars(config).values(), batch, horizon, backward, masks.m_state is None,
           masks.m_cell is None)
    buffers = WindowBuffers() if buffers is None else buffers
    plan = buffers.lend(key, params, config, masks)
    try:
        # This window's weights, state mask and carried-in states go into the plan.
        cells.forward_weights(params.layers.cell, out=plan.weights[0])
        mogrifier.forward_weights(params.layers.mog, out=plan.weights[1])
        if plan.m_state is not None:
            plan.m_state[...] = masks.m_state
        plan.cell_window.c_prev[:, 0] = 0.0 if states is None else states.c
        plan.h[...] = 0.0 if states is None else states.h
        with np.errstate(over="ignore"):  # exp overflow in sigmoid gives the right limit
            _run_steps(params, config, plan, inputs, masks)
        outputs, c = plan.outputs, plan.cell_window.c[:, -1]
        # The steps leave this check to the window: every h flows into outputs
        # (NaN * 0 is NaN), and a non-finite c stays so to the window's end.
        if not (np.all(np.isfinite(outputs)) and np.all(np.isfinite(c))):
            raise DivergenceError("non-finite cell activations")
        # One gemm for the whole window.  At batch 1 its rows are formed one at a
        # time: BLAS picks its kernel by the row count, and a batch-1 token's
        # score must not depend on the window it falls in.
        logits = gemm(outputs.reshape(-1, n), params.e_out, rowwise=batch == 1)
        logits += params.b_out
        if not np.all(np.isfinite(logits)):
            raise DivergenceError("non-finite logits")
        logits = logits.reshape(horizon, batch, -1).transpose(1, 0, 2)
        final_states = CellState(c.copy(), plan.h.copy())
        if temperature is not None:
            logits = log_softmax(logits, temperature)  # the log-probs from here on
    except BaseException:
        buffers.take_back(plan)  # a failed window makes no cache
        raise
    if not backward:
        buffers.take_back(plan)
        return logits, None, final_states
    cache = WindowCache(plan=plan, lender=buffers, inputs=inputs, masks=masks,
                        probs=np.exp(logits), temperature=temperature)
    return logits, cache, final_states


def backward_window(params: ModelParams, config: ModelConfig, cache: WindowCache, grad_log_probs):
    """Gradients of a scalar loss given its gradient on the log-probs.

    Backpropagation is truncated at the window start: no gradient flows into
    the carried-in states.  Tied embeddings sum the input-side and the
    output-side contribution into the single e_in gradient.  The time loop
    walks the forward's ticks in reverse, last to first: tick k's layers run
    as one cell and one mogrifier backward step on the parameter rows and
    cache views that the forward kept (so params are the forward's), and
    leave pre-activation gradients in the window buffers; every
    weight gradient is then one stacked gemm over the window, a product per
    layer, written into its view of the gradient vector, grads.vector.  The
    pass overwrites the gate buffers, so it spends the cache: the plan goes
    back to the cache's lender, and a second call raises ValueError.

    Every sum keeps the order of a layer-by-layer loop: sums[l] holds the
    gradient that flows into layer l's output from the layers above it at its
    step, dx_in[L-1] + ... + dx_in[l+1] added left to right onto zeros (row
    L-1 stays zero), and the embedding's gradient dx0 is formed the same way.
    """
    plan, masks = cache.plan, cache.masks
    if plan is None:
        raise ValueError("the window cache was spent by an earlier backward pass")
    batch, horizon = cache.inputs.shape
    layers, n, dtype = config.layers, config.state_size, config.np_dtype
    grads = empty_model_params(config)

    # d log_softmax: dlogit = (dlogp - p * sum(dlogp)) / temperature
    row_sums = np.sum(grad_log_probs, axis=-1, keepdims=True)
    dlogits = (grad_log_probs - cache.probs * row_sums) / cache.temperature
    dlogits = dlogits.transpose(1, 0, 2).reshape(horizon * batch, -1)  # rows as in outputs
    e_out_grad = gemm(plan.outputs.reshape(-1, n).T, dlogits)
    grads.b_out[...] = dlogits.sum(axis=0)
    dsum = gemm(dlogits, params.e_out.T).reshape(horizon, batch, n)
    if masks.m_out is not None:
        dsum *= masks.m_out

    dsum_at = _skewed(dsum, layers)  # [l, k]: the gradient on the outputs' sum
    m_cell = None if masks.m_cell is None else _skewed(masks.m_cell)
    grad_c, grad_h, sums, spare = np.zeros((4, layers, batch, n), dtype)  # grad_h: of masked h
    stack = params.layers
    for k, tick in reversed(list(enumerate(plan.ticks))):
        rows, m_state, lo, hi, above = tick.rows, tick.m_state, tick.lo, tick.hi, tick.above
        part = stack if hi - lo + 1 == layers else map_arrays(stack, lambda a: a[rows])
        dxhat = dsum_at[rows, k] + sums[rows]
        dh = dxhat if m_cell is None else dxhat * m_cell[rows, k]
        dh += grad_h[rows] if m_state is None else grad_h[rows] * m_state
        cell_t, mog_t = tick.cell_cache, tick.mog_cache
        grad_c[rows], dmog_h, dmog_x = cells.cell_backward(part.cell, cell_t, grad_c[rows], dh)
        grad_h[rows], dx_in = mogrifier.mogrify_backward(part.mog, mog_t, dmog_h, dmog_x)
        if lo == 0:  # layer 0 ran its step k: dsum[k] is spent, and now holds dx0
            # dx0 is dx_in[L-1] + ... + dx_in[0] onto zeros when the embedding is in
            # the residual sums, else dx_in[0] onto zeros: sums[-1] stays zero.
            onto = sums[0] if config.residual_includes_embedding else sums[-1]
            np.add(onto, dx_in[0], out=dsum[k])
            if masks.m_in is not None:
                dsum[k] *= masks.m_in[k]
        if above <= hi:
            np.add(sums[above : hi + 1], dx_in[above - lo :], out=spare[above - 1 : hi])
        sums, spare = spare, sums

    if params.tied:
        grads.e_in[...] = e_out_grad.T
    else:
        grads.e_out_untied[...] = e_out_grad
    np.add.at(grads.e_in, cache.inputs.T.ravel(), dsum.reshape(-1, n))
    state_mask = None if masks.m_state is None else masks.m_state[:, None]
    window = replace(plan.cell_window, state_mask=state_mask)
    cells.weight_grads(params.layers.cell, window, out=grads.layers.cell)
    mogrifier.weight_grads(params.layers.mog, plan.mog_window, out=grads.layers.mog)
    cache.lender.take_back(plan)  # the next window may reuse it
    cache.plan = cache.lender = None
    return grads


def nll_from_log_probs(log_probs, targets):
    """Mean negative log-likelihood (nats/token) and its log-prob gradient."""
    batch, horizon, _ = log_probs.shape
    rows = np.arange(batch)[:, None]
    cols = np.arange(horizon)[None, :]
    picked = log_probs[rows, cols, targets]
    count = batch * horizon
    loss = -float(np.sum(picked)) / count
    grad = np.zeros_like(log_probs)
    grad[rows, cols, targets] = -1.0 / count
    return loss, grad


def mix_sample_log_probs(sample_log_probs):
    """Combine per-sample log-probabilities of the same event by averaging the
    probabilities: log((1/D) * sum_d p_d) = logsumexp_d(log p_d) - log D."""
    stacked = np.asarray(sample_log_probs)
    return log_sum_exp(stacked, axis=0) - np.log(stacked.shape[0])


def window_loss_with_masks(
    params, config, batch: WindowBatch, masks, buffers=None, backward: bool = True
):
    """Multi-sample loss over explicit mask draws.

    `masks` holds D draws stacked along the batch axis (D*B rows, as
    sample_masks returns them); a list of per-draw MaskSets is stacked first.
    The D samples run as one forward and one backward pass at batch D*B, so
    gradients flow through all of them.  Carried-out states come from the
    first sample.  `buffers` (a WindowBuffers) lends the window buffers.
    With backward=False the window runs forward only (as a scoring pass, to
    the same bits) and the gradients are None."""
    if not isinstance(masks, MaskSet):
        masks = stack_masks(masks)
    bsz, horizon = batch.inputs.shape
    num_samples, leftover = divmod(masks.rows, bsz)
    if leftover or num_samples < 1:
        raise ValueError(
            f"masks have {masks.rows} batch rows, "
            f"not a positive multiple of batch {bsz}"
        )
    inputs = np.tile(batch.inputs, (num_samples, 1))
    targets = np.tile(batch.targets, (num_samples, 1))
    states = batch.states
    if states is not None:
        states = CellState(*(np.concatenate([a] * num_samples, 1) for a in (states.c, states.h)))
    log_probs, cache, final = forward_window(
        params, config, inputs, masks, states, buffers=buffers, backward=backward
    )
    final_states = CellState(final.c[:, :bsz], final.h[:, :bsz])

    rows = np.arange(num_samples * bsz)[:, None]
    cols = np.arange(horizon)[None, :]
    picked = log_probs[rows, cols, targets].reshape(num_samples, bsz, horizon)
    del log_probs  # only the picked entries are needed from here on
    mixed = mix_sample_log_probs(picked)
    count = bsz * horizon
    loss = -float(np.sum(mixed)) / count
    if not backward:
        return loss, None, final_states

    # Weight of sample d at each token: p_d / sum_d' p_d'; sums to 1 over d.
    weights = np.exp(picked - log_sum_exp(picked, axis=0)[None, :, :])
    grad_lp = np.zeros_like(cache.probs)
    grad_lp[rows, cols, targets] = -weights.reshape(num_samples * bsz, horizon) / count
    return loss, backward_window(params, config, cache, grad_lp), final_states


def loss_multisample(params, config, batch: WindowBatch, rng: Rng, num_samples: int, buffers=None):
    """Average predicted probabilities over independent dropout draws.
    num_samples == 1 is exactly the standard single-sample objective."""
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    bsz, horizon = batch.inputs.shape
    masks = sample_masks(rng, config, bsz, horizon, num_samples)
    return window_loss_with_masks(params, config, batch, masks, buffers)


def predict_deterministic(params, config, inputs, temperature=1.0, states=None, buffers=None):
    """Evaluation-time forward: every mask replaced by its expectation (ones),
    logits divided by the softmax temperature.  Returns (log_probs, states),
    or (logits, states) with temperature=None; `buffers` as forward_window's."""
    inputs = np.asarray(inputs)
    masks = ones_masks(config, *inputs.shape)
    scores, _, final_states = forward_window(
        params, config, inputs, masks, states, temperature, buffers, backward=False
    )
    return scores, final_states
