"""Parameter containers, initialization, and checkpoint files.

A parameter set is an ordered dict of named float arrays: float64 as
initialized, float32 while stage 1 trains.  Checkpoints are a small binary
format: an 8-byte magic, a format version, then one record per array with
its name, shape, and row-major little-endian float64 payload; float64 holds
stage 1's float32 values exactly.  ``read_layout`` is the one check of a
checkpoint's arrays and records against its model's layout.
"""
from __future__ import annotations

import struct

import numpy as np

from ..core import DataFormatError, naming, open_input, open_output

MAGIC = b"SSUMCKPT"
VERSION = 1


def uniform_init(shape, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform(-a, a) with a = 1/sqrt(fan_in)."""
    a = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-a, a, size=shape)


def lstm_init(input_dim: int, hidden: int, rng: np.random.Generator, prefix: str) -> dict:
    """Stacked-gate LSTM parameters; weights fan-in scaled, biases zero."""
    return {
        prefix + ".W": uniform_init((4 * hidden, input_dim), input_dim, rng),
        prefix + ".U": uniform_init((4 * hidden, hidden), hidden, rng),
        prefix + ".b": np.zeros(4 * hidden),
    }


def dense_init(input_dim: int, rng: np.random.Generator, prefix: str) -> dict:
    """Single-neuron dense layer: weight vector plus scalar bias."""
    return {
        prefix + ".w": uniform_init((input_dim,), input_dim, rng),
        prefix + ".b": np.zeros(1),
    }


def vector_init(dim: int, rng: np.random.Generator, name: str) -> dict:
    return {name: uniform_init((dim,), dim, rng)}


def _named(name: str) -> str:
    return "%s %r" % ("record" if name.startswith("_") else "array", name)


def _entry(ckpt: dict, name: str, kind: str) -> np.ndarray:
    if name not in ckpt:
        raise DataFormatError("no %s: not a %s checkpoint" % (_named(name), kind))
    return ckpt[name]


def read_layout(ckpt: dict, size_arrays: tuple[str, ...], layout, kind: str) -> list[int]:
    """The model sizes checkpoint ``ckpt`` holds, once its entries match
    the layout those sizes give.

    Each size is the column count of one matrix of ``size_arrays``.
    ``layout(*sizes)`` maps the name of each array and record of a
    ``kind`` checkpoint at those sizes to its shape; each must be in
    ``ckpt`` with that shape, and ``ckpt`` may hold no other array.
    Records (names starting with ``_``) outside the layout are left over
    from earlier versions and are ignored.  A refusal is a
    ``DataFormatError`` naming the array or record.
    """
    sizes = []
    for name in size_arrays:
        shape = _entry(ckpt, name, kind).shape
        if len(shape) != 2 or shape[1] == 0:
            raise DataFormatError("%s has shape %s, not a matrix of at least one column"
                                  % (_named(name), shape))
        sizes.append(shape[1])
    shapes = layout(*sizes)
    for name, shape in shapes.items():
        if _entry(ckpt, name, kind).shape != shape:
            raise DataFormatError("%s has shape %s, not %s"
                                  % (_named(name), ckpt[name].shape, shape))
    extra = [name for name in ckpt if name not in shapes and not name.startswith("_")]
    if extra:
        raise DataFormatError("%s is not part of a %s model" % (_named(extra[0]), kind))
    return sizes


def save_checkpoint(params: dict, path: str) -> None:
    with open_output(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", VERSION, len(params)))
        for name, arr in params.items():
            arr, name_b = np.asarray(arr, dtype="<f8"), name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_b)) + name_b
                     + struct.pack("<B%dI" % arr.ndim, arr.ndim, *arr.shape) + arr.tobytes())


def load_checkpoint(path: str) -> dict:
    with naming(path):
        with open_input(path) as fh:
            data = fh.read()
        if data[: len(MAGIC)] != MAGIC:
            raise DataFormatError("not a checkpoint file (bad magic)")
        off = len(MAGIC)

        def take(size: int) -> int:
            """Claim the next ``size`` bytes; returns their offset."""
            nonlocal off
            if off + size > len(data):
                raise DataFormatError("checkpoint is truncated (%d bytes)" % len(data))
            off += size
            return off - size

        version, count = struct.unpack_from("<II", data, take(8))
        if version != VERSION:
            raise DataFormatError("checkpoint version %d unsupported" % version)
        params: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", data, take(2))
            start = take(name_len)
            try:
                name = data[start : start + name_len].decode("utf-8")
            except UnicodeDecodeError:
                raise DataFormatError("malformed array name") from None
            (ndim,) = struct.unpack_from("<B", data, take(1))
            shape = [struct.unpack_from("<I", data, take(4))[0] for _ in range(ndim)]
            n = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(data, dtype="<f8", count=n, offset=take(n * 8)).copy()
            # training aborts on a non-finite gradient, so no valid checkpoint holds one
            if not np.all(np.isfinite(arr)):
                raise DataFormatError("array %r holds non-finite values" % name)
            params[name] = arr.reshape(shape)
        if off != len(data):
            raise DataFormatError("checkpoint has %d trailing bytes" % (len(data) - off))
    return params
