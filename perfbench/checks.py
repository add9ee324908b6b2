"""Correctness checks on the outputs of one benchmark run.

The checks take plain values (parsed CLI lines, file hashes, metrics-log
lines), so the self-tests can feed them tampered outputs.  Every failed check
is kept by name and counts as one failed operation.
"""

from __future__ import annotations

import hashlib
import math


def parse_pairs(line: str) -> dict:
    """The key=value fields of one rnnlab output line, values as strings."""
    return dict(item.split("=", 1) for item in line.split() if "=" in item)


def last_line_with(text: str, prefix: str) -> dict:
    """Fields of the last line of `text` that starts with `prefix`."""
    lines = [line for line in text.splitlines() if line.startswith(prefix)]
    if not lines:
        raise ValueError(f"no output line starts with {prefix!r}")
    return parse_pairs(lines[-1])


def event_lines(log_text: str) -> list:
    """The event= lines of a metrics log, the part that must repeat exactly."""
    return [line for line in log_text.splitlines() if line.startswith("event=")]


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Checks:
    """Collects named pass/fail results."""

    def __init__(self):
        self.results = []  # (name, ok, detail)

    def record(self, name: str, ok: bool, detail: str = ""):
        self.results.append((name, bool(ok), detail))
        return ok

    def bpc(self, name: str, value: float, vocab_size: int):
        """A bits-per-byte figure must be finite, positive and below the
        uniform baseline log2(V)."""
        limit = math.log2(vocab_size)
        ok = math.isfinite(value) and 0.0 < value < limit
        return self.record(name, ok, f"{value!r} (limit log2({vocab_size}) = {limit:.4f})")

    def identical(self, name: str, values: list):
        """Every repeat of one workload seed must give the same value."""
        ok = len(values) >= 2 and all(v == values[0] for v in values[1:])
        distinct = len({repr(v) for v in values})
        return self.record(name, ok, f"{len(values)} repeats, {distinct} distinct")

    def bitwise_equal(self, name: str, a: str, b: str):
        """Two printed floats must be the same double (repr round-trips)."""
        ok = float(a) == float(b) and math.isfinite(float(a))
        return self.record(name, ok, f"{a} vs {b}")

    def bounded_state(self, name: str, max_abs_c: float):
        ok = math.isfinite(max_abs_c) and max_abs_c <= 1.0
        return self.record(name, ok, f"max |c| = {max_abs_c!r}")

    @property
    def failed(self) -> list:
        return [name for name, ok, _ in self.results if not ok]
