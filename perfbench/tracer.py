"""In-memory span tracer installed from outside the program.

`Tracer.install()` replaces the public functions listed in TARGETS with
wrappers that record one span per call: name, start, end and the span that
was open when the call began (its parent).  Every module of the package that
imported one of those functions by name gets the wrapper too (for example
`cells.gemm`, `model.accumulate`, `training.flatten`), so calls are counted
wherever they are made.  `uninstall()` puts the original functions back.

Spans live in flat arrays while the run goes on and are written out once, at
the end (`save`).  Self time is a span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array

import numpy as np

PACKAGE = "rnnlab"

# (module, function) pairs to wrap, grouped by layer.
TARGETS = [
    ("numerics", "gemm"),
    ("numerics", "sigmoid"),
    ("numerics", "log_softmax"),
    ("numerics", "bernoulli_mask"),
    ("cells", "lstm_forward"),
    ("cells", "rlstm_forward"),
    ("cells", "lstm_backward"),
    ("cells", "rlstm_backward"),
    ("mogrifier", "mogrify_forward"),
    ("mogrifier", "mogrify_backward"),
    ("model", "forward_window"),
    ("model", "backward_window"),
    ("model", "loss_multisample"),
    ("model", "sample_masks"),
    ("model", "predict_deterministic"),
    ("ptree", "accumulate"),
    ("ptree", "flatten"),
    ("ptree", "unflatten_into"),
    ("training", "train"),
    ("training", "radam_step"),
    ("training", "tta_update"),
    ("training", "clip_global_norm"),
    ("evaluation", "evaluate_static"),
    ("evaluation", "evaluate_dynamic"),
    ("evaluation", "tune_temperature"),
    ("evaluation", "tune_dyneval"),
    ("corpus", "write_splits"),
    ("data", "load_splits"),
    ("data", "encode"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
]

MODULES = [
    "numerics", "ptree", "cells", "mogrifier", "model", "data", "corpus",
    "evaluation", "training", "checkpoint", "config", "gradcheck", "cli",
]


def _gemm_flop(a, b, *_, **__):
    """Computed (not measured) work of one gemm call: 2 m n k."""
    sa, sb = np.shape(a), np.shape(b)
    if len(sa) != 2 or len(sb) != 2:
        return 0.0  # gemm itself rejects the call
    return 2.0 * sa[0] * sa[1] * sb[1]


WORK = {"numerics.gemm": _gemm_flop}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []  # name table; spans store an index into it
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]
        self._patched = []  # (module, attribute, original)

    def _intern(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def _open(self, nid: int, work: float) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.work.append(work)
        self.end.append(0.0)
        self.start.append(self.clock())
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.end[idx] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, label: str):
        idx = self._open(self._intern(label), 0.0)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, label: str):
        nid = self._intern(label)
        work_of = WORK.get(label)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid, work_of(*args, **kwargs) if work_of else 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        modules.append(importlib.import_module(PACKAGE))
        for mod_name, fn_name in TARGETS:
            owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            original = getattr(owner, fn_name)
            wrapper = self.wrap(original, f"{mod_name}.{fn_name}")
            # Rebind every module-level name that refers to the original, so
            # `from .numerics import gemm` callers are traced as well.
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def spans(self) -> "Spans":
        if len(self._stack) != 1:
            raise RuntimeError("spans requested while a span is still open")
        return Spans(
            list(self.names),
            np.frombuffer(self.name, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
            np.frombuffer(self.work, dtype=np.float64).copy(),
        )


class Spans:
    """Finished spans as arrays, with the derived quantities the metrics use."""

    def __init__(self, names, name, parent, start, end, work):
        self.names = names
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.work = work
        self.duration = end - start
        child = np.zeros(len(name))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child

    def __len__(self):
        return len(self.name)

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name=self.name, parent=self.parent,
            start=self.start, end=self.end, work=self.work,
        )

    @classmethod
    def load(cls, path) -> "Spans":
        with np.load(path) as z:
            return cls([str(n) for n in z["names"]], z["name"], z["parent"], z["start"],
                       z["end"], z["work"])

    def select(self, label: str) -> np.ndarray:
        """Boolean mask of the spans with this name."""
        if label not in self.names:
            return np.zeros(len(self), dtype=bool)
        return self.name == self.names.index(label)

    def owner(self, label: str) -> np.ndarray:
        """For each span, the index of the nearest span with this name on its
        path to the root (itself included), or -1 when there is none."""
        has_parent = self.parent >= 0
        parent = np.where(has_parent, self.parent, 0)
        own = np.where(self.select(label), np.arange(len(self)), -1)
        while True:  # one pass per tree level
            deeper = np.where((own < 0) & has_parent, own[parent], own)
            if np.array_equal(deeper, own):
                return own
            own = deeper

    def under(self, label: str) -> np.ndarray:
        """Boolean mask of the spans that have an ancestor with this name."""
        has_parent = self.parent >= 0
        return has_parent & (self.owner(label)[np.where(has_parent, self.parent, 0)] >= 0)

    def per_parent(self, child: str, parent: str, weights=None) -> np.ndarray:
        """For each span named `parent`, the number of `child` spans below it
        (or the sum of `weights` over them)."""
        mask = self.select(child) & self.under(parent)
        own = self.owner(parent)[mask]
        w = None if weights is None else weights[mask]
        totals = np.bincount(own, weights=w, minlength=len(self))
        return totals[self.select(parent)]

    def median_per_parent(self, child: str, parent: str, weights=None) -> float:
        """Median of `per_parent` over the `parent` spans, 0 when there are
        none.  Over training windows the median skips an epoch's shorter last
        window, so call counts come out exact."""
        counts = self.per_parent(child, parent, weights)
        return float(np.median(counts)) if counts.size else 0.0

    def _mask(self, label: str, within) -> np.ndarray:
        mask = self.select(label)
        return mask if within is None else mask & within

    def count(self, label: str, within=None) -> int:
        return int(self._mask(label, within).sum())

    def self_ms(self, label: str, within=None) -> float:
        return float(self.self_time[self._mask(label, within)].sum() * 1e3)

    def total_ms(self, label: str, within=None) -> float:
        return float(self.duration[self._mask(label, within)].sum() * 1e3)

    def durations_ms(self, label: str, within=None) -> np.ndarray:
        return self.duration[self._mask(label, within)] * 1e3
