"""Deterministic evaluation, metric conversion, softmax-temperature tuning,
and dynamic evaluation (test-time adaptation of fast weights by gradient
steps on already-scored text).

All scoring uses deterministic dropout (masks at their expectation).  With
batch size 1 the per-token negative log-likelihoods are accumulated one by
one in stream order, so totals do not depend on how the stream is chunked
into windows; dynamic evaluation with learning rate 0 is then bitwise equal
to static evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from . import model
from .numerics import DivergenceError, log_softmax


def convert_metrics(nats_per_token: float):
    """(perplexity, bits per token) from a mean negative log-likelihood.

    Perplexity saturates to inf when exp overflows (diverged adaptation can
    produce finite but astronomical losses)."""
    try:
        perplexity = math.exp(nats_per_token)
    except OverflowError:
        perplexity = float("inf")
    return perplexity, nats_per_token / math.log(2.0)


@dataclass
class DynevalConfig:
    segment: int = 100  # tokens scored (then adapted on) per update
    lr: float = 0.0  # 0 disables adaptation entirely
    decay: float = 0.0  # pull toward the slow weights, in [0, 1)
    norm: str = "none"  # none | global (g / max(1, ||g||))

    def validate(self):
        if self.segment < 1:
            raise ValueError(f"segment must be >= 1, got {self.segment}")
        if not 0 <= self.lr < math.inf:
            raise ValueError(f"lr must be >= 0 and finite, got {self.lr}")
        if not 0.0 <= self.decay < 1.0:
            raise ValueError(f"decay must be in [0, 1), got {self.decay}")
        if self.norm not in ("none", "global"):
            raise ValueError(f"norm must be 'none' or 'global', got '{self.norm}'")
        return self


@dataclass
class EvalSettings:
    """The evaluation keys of a run config: how a split is scored, at which
    temperature, and the grid that tune-temperature searches."""

    eval_split: str = "test"
    eval_batch_size: int = 1
    eval_window: int = 128
    temperature: float = 1.0
    temperature_grid_min: float = 0.70
    temperature_grid_max: float = 1.30
    temperature_grid_step: float = 0.02
    temperature_file: str = ""

    def validate(self):
        if self.eval_split not in ("train", "valid", "test"):
            raise ValueError(f"eval_split must be train, valid, or test, got '{self.eval_split}'")
        for name in ("eval_batch_size", "eval_window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")
        self.temperature_grid()
        return self

    def temperature_grid(self):
        """min, min + step, ... up to max, each rounded to 10 decimals; at
        most 10,001 of them."""
        lo, hi = self.temperature_grid_min, self.temperature_grid_max
        step = self.temperature_grid_step
        if not 0 < lo <= hi < math.inf:
            raise ValueError(
                "temperature grid requires 0 < temperature_grid_min <= temperature_grid_max "
                f"< inf, got {lo} and {hi}"
            )
        if not (0 < step < math.inf and (hi - lo) / step < 10_000):
            raise ValueError(
                "temperature grid requires a finite temperature_grid_step > 0 that gives at "
                f"most 10,001 points, got {step}"
            )
        return [round(lo + k * step, 10) for k in range(int(round((hi - lo) / step)) + 1)]


@dataclass
class EvalReport:
    total_nats: float
    token_count: int
    nats_per_token: float
    perplexity: float
    bpc: float
    temperature: float
    dyneval: DynevalConfig | None = None
    partial: bool = False  # dynamic evaluation aborted by non-finite fast weights


def make_report(total_nats, token_count, temperature, dyneval=None, partial=False) -> EvalReport:
    nats = total_nats / token_count if token_count else float("nan")
    ppl, bpc = convert_metrics(nats)
    return EvalReport(
        total_nats=total_nats,
        token_count=token_count,
        nats_per_token=nats,
        perplexity=ppl,
        bpc=bpc,
        temperature=temperature,
        dyneval=dyneval,
        partial=partial,
    )


def format_report(report: EvalReport) -> str:
    parts = [
        f"nats_per_token={report.nats_per_token!r}",
        f"perplexity={report.perplexity!r}",
        f"bpc={report.bpc!r}",
        f"tokens={report.token_count}",
        f"temperature={report.temperature!r}",
    ]
    if report.dyneval is not None:
        d = report.dyneval
        parts.append(
            f"dyn_segment={d.segment} dyn_lr={d.lr!r} dyn_decay={d.decay!r} dyn_norm={d.norm}"
        )
    if report.partial:
        parts.append("partial=true")
    return " ".join(parts)


def _picked_log_probs(log_probs, targets):
    bsz, horizon = targets.shape
    rows = np.arange(bsz)[:, None]
    cols = np.arange(horizon)[None, :]
    return log_probs[rows, cols, targets]


def _minus_picked(total: float, picked) -> float:
    """total minus the picked log-probs of one window.  A batch-1 window is
    subtracted one token after the other in stream order (cumsum runs
    strictly left to right, unlike np.sum), so totals do not depend on the
    windowing; wider batches subtract their sum."""
    if picked.shape[0] == 1:
        return float(np.cumsum(np.concatenate(([total], -picked[0])))[-1])
    return total - float(np.sum(picked))


def require_scorable(stream, batch_size: int, name: str = "evaluation stream"):
    """A data.DataError (a ValueError) unless the stream fills `batch_size`
    rows of two tokens or more: an input and its target.  `name` names the
    stream in the message."""
    size = np.asarray(stream).size
    if size < 2 * batch_size:
        raise data_mod.DataError(
            f"{name} has {size} tokens; batch size {batch_size} needs at least {2 * batch_size}"
        )


def _scored_totals(params, config, stream, temperatures, batch_size, window):
    """Total nats at each temperature and the number of scored tokens, from
    one deterministic pass over the stream with carried state, laid out as
    evaluate_static says.  Each window's logits are kept until every
    temperature has scored them with the log_softmax the model applies."""
    stream = np.asarray(stream)
    require_scorable(stream, batch_size)
    rows = stream[None, :] if batch_size == 1 else data_mod.batchify(stream, batch_size)
    states, buffers = None, model.WindowBuffers()  # windows of one shape share a tick plan
    totals = [0.0] * len(temperatures)
    count = 0
    for batch in data_mod.windows(rows, window):
        logits, states = model.predict_deterministic(
            params, config, batch.inputs, None, states, buffers
        )
        for k, temp in enumerate(temperatures):
            picked = _picked_log_probs(log_softmax(logits, temp), batch.targets)
            totals[k] = _minus_picked(totals[k], picked)
        del logits  # freed before the next window runs, not held through it
        count += batch.targets.size
    return totals, count


def evaluate_static(
    params, config, stream, temperature=1.0, batch_size=1, window=128
) -> EvalReport:
    """One deterministic pass over the stream with carried state.

    batch_size > 1 lays the stream out as contiguous rows (dropping the
    remainder) for speed; batch_size 1 scores every target token exactly.
    """
    (total,), count = _scored_totals(params, config, stream, [temperature], batch_size, window)
    return make_report(total, count, temperature)


def default_temperature_grid():
    return EvalSettings().temperature_grid()


def temperature_sweep(params, config, stream, grid=None, batch_size=1, window=128):
    """Validation nats/token at every grid temperature, in grid order, from
    one forward pass: temperature only rescales the logits."""
    grid = default_temperature_grid() if grid is None else list(grid)
    if not grid:
        raise ValueError("temperature grid must be non-empty")
    if any(t <= 0 for t in grid):
        raise ValueError("temperatures must be positive")
    totals, count = _scored_totals(params, config, stream, grid, batch_size, window)
    return [(temp, total / count) for temp, total in zip(grid, totals, strict=True)]


def tune_temperature(params, config, stream, grid=None, batch_size=1, window=128) -> float:
    """Grid temperature maximizing validation log-likelihood; exact ties go to
    the temperature closest to 1 (then the smaller one)."""
    results = temperature_sweep(params, config, stream, grid, batch_size, window)
    best_nats = min(nats for _, nats in results)
    contenders = [temp for temp, nats in results if nats == best_nats]
    return min(contenders, key=lambda t: (abs(t - 1.0), t))


@np.errstate(over="ignore", invalid="ignore")
def _dynamic_reports(params, config, stream, grid, temperature, on_event=None):
    """evaluate_dynamic's report for each grid entry, from one walk over the
    segments.  A track is the entries of one segment length whose fast weights
    have the same bytes, with their states and totals.  It scores a segment
    once and, if some of its entries adapt on it, makes one backward pass;
    entries whose updates have the same bytes go on as one track.  So each
    entry scores the bits of a pass of its own (at batch 1 a pass run for its
    backward scores as a scoring pass does).  A divergence ends only its track
    (flagged partial) and warns nothing."""
    for dcfg in grid:
        dcfg.validate()
    stream = np.asarray(stream)
    require_scorable(stream, 1)
    theta0 = params.vector
    lenders = model.WindowBuffers(), model.WindowBuffers()  # [adapting]: a plan for each pass
    on_event = on_event or (lambda event: None)
    reports = [None] * len(grid)
    for segment in dict.fromkeys(d.segment for d in grid):
        last = (stream.size - 2) // segment  # no token reads the weights adapted on it
        members = [(i, d) for i, d in enumerate(grid) if d.segment == segment]
        tracks = [(model.empty_model_params(config, theta0.copy()), members, None, 0.0, 0)]
        for k, batch in enumerate(data_mod.windows(stream[None, :], segment)):
            live = []
            for fast, members, states, total, count in tracks:
                adapting = [(i, d) for i, d in members if k < last and d.lr + d.decay > 0]
                on_event(("score", k))
                try:
                    log_probs, cache, states = model.forward_window(
                        fast, config, batch.inputs, model.ones_masks(config, *batch.inputs.shape),
                        states, temperature, lenders[bool(adapting)], backward=bool(adapting),
                    )
                except DivergenceError:
                    for i, d in members:
                        reports[i] = make_report(total, count, temperature, d, partial=True)
                    continue
                picked = _picked_log_probs(log_probs, batch.targets)
                total, count = _minus_picked(total, picked), count + picked.size
                if keep := [m for m in members if m not in adapting]:
                    live.append((fast, keep, states, total, count))
                if not adapting:
                    continue
                on_event(("update", k))
                _, grad_lp = model.nll_from_log_probs(log_probs, batch.targets)
                raw = model.backward_window(fast, config, cache, grad_lp).vector
                g = {d.norm: raw for _, d in adapting}  # the raw gradient only if an entry reads it
                if "global" in g:
                    g["global"] = raw / max(1.0, float(np.linalg.norm(raw)))
                del raw
                theta = fast.vector
                children = []  # (params, entries) per distinct byte string of new weights
                for n, (i, d) in enumerate(adapting, 1):
                    updated = theta - d.lr * g[d.norm] + d.decay * (theta0 - theta)
                    if keep or n < len(adapting):
                        new = model.empty_model_params(config, updated)
                    else:  # nothing reads theta after this update: adapt in place
                        theta[...] = updated
                        new = fast
                    for twin, entries in children:
                        if np.array_equal(twin.vector.view(np.uint8), new.vector.view(np.uint8)):
                            entries.append((i, d))
                            break
                    else:
                        children.append((new, [(i, d)]))
                live += [(new, group, states, total, count) for new, group in children]
            tracks = live
        for fast, members, states, total, count in tracks:
            for i, d in members:
                reports[i] = make_report(total, count, temperature, d)
    return reports


def evaluate_dynamic(
    params, config, stream, dcfg: DynevalConfig, temperature=1.0, on_event=None
) -> EvalReport:
    """Score the stream in segments, adapting a copy of the weights after each
    segment has been scored: theta <- theta - lr * g_hat + decay * (theta0 - theta).

    Every token is predicted by weights that never saw it, and nothing adapts
    on the last segment, whose weights no token reads.  A non-finite
    forward pass aborts adaptation and returns the report for the tokens
    scored so far, flagged partial.  on_event, if given, receives
    ("score", k) and ("update", k) callbacks in execution order, ending with
    the last segment's ("score", k).
    """
    return _dynamic_reports(params, config, stream, [dcfg], temperature, on_event)[0]


def default_dyneval_grid(segment: int):
    """Candidate adaptation settings; the first entry disables adaptation, so
    tuning can never do worse than static evaluation."""
    grid = [DynevalConfig(segment=segment, lr=0.0, decay=0.0, norm="none")]
    for lr in (1e-4, 3e-4, 1e-3, 3e-3, 1e-2):
        for decay in (0.0, 0.02):
            grid.append(DynevalConfig(segment=segment, lr=lr, decay=decay, norm="global"))
    return grid


def tune_dyneval(params, config, stream, grid, temperature=1.0):
    """Pick the grid entry with the lowest nats/token on the tuning stream;
    exact ties keep the earliest entry (grids put the static setting first)."""
    if not grid:
        raise ValueError("dyneval grid must be non-empty")
    best, best_nats = None, math.inf
    for dcfg, report in zip(grid, _dynamic_reports(params, config, stream, grid, temperature)):
        nats = report.nats_per_token if not report.partial else math.inf
        if nats < best_nats:
            best, best_nats = dcfg, nats
    return best, best_nats
