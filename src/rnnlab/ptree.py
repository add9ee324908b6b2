"""Structural helpers for parameter containers.

Parameter objects are dataclasses whose fields are numpy arrays, nested
dataclasses, or lists thereof.  These helpers walk that structure in a fixed
order (field declaration order, list index order), the canonical order.  The
arrays of a tree can be views into one flat vector, laid out in canonical
order (`views`) or as a stack of equal blocks, each in canonical order
(`stacked_views`, the model's layers); the optimizer, weight averaging,
dynamic evaluation and checkpoints work on the vector itself.  A field
declared with `vector_field()` holds that vector and is not part of the tree.
"""

from __future__ import annotations

import dataclasses

import numpy as np


def vector_field():
    """A dataclass field for the vector that the other fields are views into;
    the tree walks skip it."""
    return dataclasses.field(default=None, repr=False, compare=False, metadata={"vector": True})


def _fields(obj):
    return [f for f in dataclasses.fields(obj) if "vector" not in f.metadata]


def named_arrays(obj, prefix=""):
    """Yield (path, array) pairs in canonical order."""
    if isinstance(obj, np.ndarray):
        yield prefix, obj
    elif dataclasses.is_dataclass(obj):
        for field in _fields(obj):
            value = getattr(obj, field.name)
            path = f"{prefix}.{field.name}" if prefix else field.name
            yield from named_arrays(value, path)
    elif isinstance(obj, (list, tuple)):
        for index, value in enumerate(obj):
            yield from named_arrays(value, f"{prefix}[{index}]")
    elif obj is None or isinstance(obj, (int, float, bool, str)):
        return
    else:
        raise TypeError(f"unsupported node in parameter tree at '{prefix}': {type(obj)}")


def map_arrays(obj, fn):
    """Rebuild the structure with fn applied to every array leaf, in canonical
    order; vector fields are left at their default."""
    if isinstance(obj, np.ndarray):
        return fn(obj)
    if isinstance(obj, list):
        return [map_arrays(value, fn) for value in obj]
    if isinstance(obj, tuple):
        return tuple(map_arrays(value, fn) for value in obj)
    if dataclasses.is_dataclass(obj):
        kwargs = {field.name: map_arrays(getattr(obj, field.name), fn) for field in _fields(obj)}
        return type(obj)(**kwargs)
    if obj is None or isinstance(obj, (int, float, bool, str)):
        return obj
    raise TypeError(f"unsupported node in parameter tree: {type(obj)}")


def views(obj, vector: np.ndarray):
    """Rebuild the structure with each array leaf replaced by a view of the
    next stretch of `vector`, in canonical order; only the leaves' shapes are
    read.  The vector must hold exactly as many entries as the leaves."""
    sizes = [arr.size for _, arr in named_arrays(obj)]
    if sum(sizes) != vector.size:
        raise ValueError(f"vector has {vector.size} entries, tree has {sum(sizes)}")
    stretches = iter(np.split(vector, np.cumsum(sizes)[:-1]))
    return map_arrays(obj, lambda arr: next(stretches).reshape(arr.shape))


def stacked_views(obj, vector: np.ndarray, count: int):
    """Rebuild the structure with each array leaf replaced by a (count, *shape)
    view of `vector`, a contiguous run of `count` equal blocks, each holding
    the leaves in canonical order: leaf [i] views block i.  Only the leaves'
    shapes are read."""
    sizes = [arr.size for _, arr in named_arrays(obj)]
    blocks = vector.reshape(count, sum(sizes))
    starts = iter(np.cumsum([0, *sizes[:-1]]))

    def stacked(arr):
        start = next(starts)
        return blocks[:, start : start + arr.size].reshape(count, *arr.shape)

    return map_arrays(obj, stacked)


def accumulate(dst, src, scale=1.0):
    """In-place dst += scale * src over matching tree structures."""
    for (path_d, arr_d), (path_s, arr_s) in zip(
        named_arrays(dst), named_arrays(src), strict=True
    ):
        if path_d != path_s or arr_d.shape != arr_s.shape:
            raise ValueError(f"tree mismatch: {path_d}{arr_d.shape} vs {path_s}{arr_s.shape}")
        arr_d += scale * arr_s


def flatten(obj) -> np.ndarray:
    """Concatenate all array leaves into one float64 vector (canonical order)."""
    parts = [np.asarray(arr, dtype=np.float64).ravel() for _, arr in named_arrays(obj)]
    if not parts:
        return np.zeros(0)
    return np.concatenate(parts)


def unflatten_into(obj, vec: np.ndarray):
    """Write a flat vector back into the array leaves, preserving their dtypes."""
    vec = np.asarray(vec)
    offset = 0
    for _, arr in named_arrays(obj):
        chunk = vec[offset : offset + arr.size]
        if chunk.size != arr.size:
            raise ValueError("flat vector shorter than the parameter tree")
        arr[...] = chunk.reshape(arr.shape).astype(arr.dtype, copy=False)
        offset += arr.size
    if offset != vec.size:
        raise ValueError(f"flat vector has {vec.size} entries, tree has {offset}")

