"""Flat binary archive for parameters and other named float tensors.

Layout: magic ``HSTTN1``, u32 record count, then per record a u32
name length, UTF-8 name, u32 ndim, u32 dims, and the values as
little-endian float32.  Records are read back one at a time, as stored,
in float32.  Every value is finite: a save refuses any other, and a read
rejects it.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

MAGIC = b"HSTTN1"


class CheckpointError(ValueError):
    """Archive is malformed or disagrees with the constructed model."""


def save_archive(path, arrays):
    """Write a name -> array mapping; values are stored as float32.

    A value that is not finite as float32 (NaN, inf, or beyond float32's
    range) is refused before the file is opened.
    """
    records = {}
    for name in sorted(arrays):
        with np.errstate(over="ignore"):  # an overflow is refused below
            records[name] = np.asarray(arrays[name], dtype=np.float64).astype("<f4")
        if not _finite(records[name]):
            raise CheckpointError(f"{path}: non-finite values in record {name!r}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(records)))
        for name, arr in records.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.tobytes())


def _finite(arr):
    # summed in float64, finite float32 values cannot overflow, and one
    # non-finite entry poisons the sum
    return bool(np.isfinite(arr.sum(dtype=np.float64)))


def read_records(path):
    """Yield an archive's (name, float32 array) records one at a time, in
    file order.

    Each array is a read-only view of its own record's bytes, as stored;
    no record is widened, and none is held after the next is read.  Every
    declared length is checked against the bytes left in the file before
    it is read.  A record holding a non-finite value is an error, and so
    are bytes after the last record.
    """
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a checkpoint archive")
        left = os.fstat(fh.fileno()).st_size - len(MAGIC)

        def take(n, fault="truncated archive"):
            nonlocal left
            if n > left:
                raise CheckpointError(f"{path}: {fault}")
            left -= n
            return fh.read(n)

        def u32s(n):
            return struct.unpack(f"<{n}I", take(4 * n))

        (count,) = u32s(1)
        for _ in range(count):
            (nlen,) = u32s(1)
            try:
                name = take(nlen).decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: record name is not UTF-8") from None
            (ndim,) = u32s(1)
            shape = u32s(ndim)
            size = math.prod(shape)  # a Python int: a product of u32 dims must not wrap
            arr = np.frombuffer(take(4 * size, f"truncated data for record {name!r}"), dtype="<f4")
            if not _finite(arr):
                raise CheckpointError(f"{path}: non-finite values in record {name!r}")
            yield name, arr.reshape(shape)
        if left:
            raise CheckpointError(f"{path}: {left} trailing bytes after last record")


def verify_names_shapes(shapes, expected):
    """Check an archive's name -> shape pairs against the expected ones."""
    missing = sorted(set(expected) - set(shapes))
    extra = sorted(set(shapes) - set(expected))
    if missing or extra:
        raise CheckpointError(f"parameter names disagree (missing={missing}, extra={extra})")
    for name, shape in expected.items():
        if shapes[name] != tuple(shape):
            raise CheckpointError(
                f"shape mismatch for {name!r}: checkpoint {shapes[name]}, model {tuple(shape)}"
            )
