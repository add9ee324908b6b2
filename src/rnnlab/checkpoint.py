"""The file format of a training.Checkpoint: versioned binary checkpoints
with bit-exact round-trips.

Layout:
  bytes 0-3   magic "RNLB"
  bytes 4-7   format version, unsigned 32-bit little-endian
  bytes 8-15  header length H, unsigned 64-bit little-endian
  H bytes     canonical JSON header (sorted keys, no whitespace): model
              config, optimizer scalars, averaging tail bookkeeping, rng
              state, best validation loss, learning rate (radam.lr once
              more), payload sizes, zlib.crc32 of the payload
  rest        little-endian float64 payload: the parameter vector, first
              moment, second moment, long-tail mean, short-tail mean

Version 2 stores the cell gates as fused matrices, which changes the flat
parameter order, and adds the payload checksum; version 1 files are refused.

JSON serializes floats via repr, which round-trips their binary values
exactly, so save -> load -> save reproduces the file byte for byte."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import zlib

import numpy as np

from . import model
from .model import ModelConfig
from .training import Checkpoint, RAdamState, Tail, TtaState

MAGIC = b"RNLB"
VERSION = 2


class CheckpointError(Exception):
    pass


class CheckpointVersionError(CheckpointError):
    pass


def _header_dict(ckpt: Checkpoint, param_count: int, payload_crc32: int) -> dict:
    return {
        "model_config": dataclasses.asdict(ckpt.config),
        "radam": {
            "step": ckpt.radam.step,
            "lr": ckpt.radam.lr,
            "beta1": ckpt.radam.beta1,
            "beta2": ckpt.radam.beta2,
            "eps": ckpt.radam.eps,
        },
        "tta": {
            "long": {"start": ckpt.tta.long.start, "count": ckpt.tta.long.count},
            "short": {"start": ckpt.tta.short.start, "count": ckpt.tta.short.count},
            "step": ckpt.tta.step,
        },
        "rng": ckpt.rng_state,
        "best_val_nats": ckpt.best_val_nats,
        "lr": ckpt.radam.lr,
        "param_count": param_count,
        "payload_crc32": payload_crc32,
    }


def save_checkpoint(path, ckpt: Checkpoint):
    """Write ckpt to path through a temporary file beside it, which a
    failed write or rename removes again."""
    count = ckpt.params.vector.size
    for name, vec in (
        ("first moment", ckpt.radam.m),
        ("second moment", ckpt.radam.v),
        ("long tail", ckpt.tta.long.mean),
        ("short tail", ckpt.tta.short.mean),
    ):
        if vec.size != count:
            raise CheckpointError(f"{name} has {vec.size} entries, parameters have {count}")
    payload = np.concatenate(
        [ckpt.params.vector, ckpt.radam.m, ckpt.radam.v, ckpt.tta.long.mean, ckpt.tta.short.mean]
    ).astype("<f8").tobytes()
    header = _header_dict(ckpt, count, zlib.crc32(payload))
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob = (
        MAGIC
        + np.uint32(VERSION).tobytes()
        + np.uint64(len(header_bytes)).tobytes()
        + header_bytes
        + payload
    )
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint.  Every way a file can fail to decode (too short,
    unreadable header, missing or mistyped fields, sizes that disagree)
    raises CheckpointError naming the file.

    The payload is read straight into one array, and the parameters, the
    moments and the tails are views of it: no vector is copied, except the
    parameters' cast at float32."""
    with open(path, "rb") as fh:
        preamble = fh.read(16)
        if preamble[:4] != MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint file (bad magic)")
        if len(preamble) < 16:
            raise CheckpointError(
                f"{path} is truncated: {len(preamble)} bytes, the preamble needs 16"
            )
        version = int(np.frombuffer(preamble[4:8], dtype="<u4")[0])
        if version != VERSION:
            raise CheckpointVersionError(
                f"checkpoint {path} has format version {version}; "
                f"this build reads version {VERSION}"
            )
        try:
            return _decode(fh, preamble, os.fstat(fh.fileno()).st_size)
        except CheckpointError as err:
            raise CheckpointError(f"{path}: {err}") from None
        except (ArithmeticError, KeyError, IndexError, TypeError, ValueError) as err:
            raise CheckpointError(f"{path} is corrupt: {type(err).__name__}: {err}") from None


def _decode(fh, preamble: bytes, size: int) -> Checkpoint:
    """The checkpoint whose file, of `size` bytes, `fh` has read up to the
    end of `preamble`."""
    header_len = int(np.frombuffer(preamble[8:16], dtype="<u8")[0])
    if 16 + header_len > size:
        raise CheckpointError(f"header of {header_len} bytes runs past the end of the file")
    header = json.loads(fh.read(header_len).decode("utf-8"))
    count = _field(header, "param_count", int)
    payload_len = size - 16 - header_len
    if payload_len != 5 * 8 * count:
        raise CheckpointError(
            f"payload has {payload_len} bytes, expected {5 * 8 * count} ({5 * count} floats)"
        )
    floats = np.empty(5 * count, "<f8")
    if fh.readinto(floats) != payload_len:
        raise CheckpointError(f"payload ends before its {payload_len} bytes")
    crc = zlib.crc32(floats)
    if crc != _field(header, "payload_crc32", int):
        raise CheckpointError(
            f"payload checksum {crc} differs from the header's {header['payload_crc32']}"
        )
    config = ModelConfig(**_field(header, "model_config", dict))
    params = model.empty_model_params(config, floats[:count])  # a cast only at float32
    m, v, long_mean, short_mean = np.split(floats[count:], 4)
    r = _field(header, "radam", dict)
    radam = RAdamState(
        m=m, v=v, step=_field(r, "step", int), lr=_field(r, "lr", float),
        beta1=_field(r, "beta1", float), beta2=_field(r, "beta2", float),
        eps=_field(r, "eps", float),
    )
    t = _field(header, "tta", dict)
    long, short = (_field(t, name, dict) for name in ("long", "short"))
    tta = TtaState(
        long=Tail(long_mean, _field(long, "start", int), _field(long, "count", int)),
        short=Tail(short_mean, _field(short, "start", int), _field(short, "count", int)),
        step=_field(t, "step", int),
    )
    rng_state = _field(header, "rng", dict)
    best_val_nats = _field(header, "best_val_nats", float)
    _field(header, "lr", float)  # radam.lr once more, for readers of the header
    return Checkpoint(config, params, radam, tta, rng_state, best_val_nats)


def _field(section, key: str, kind: type):
    """section[key], checked to be a `kind` (an int also passes as a float)."""
    if not isinstance(section, dict) or key not in section:
        raise CheckpointError(f"header lacks '{key}'")
    value = section[key]
    kinds = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise CheckpointError(f"header field '{key}' is {value!r}, not {kind.__name__}")
    return value

