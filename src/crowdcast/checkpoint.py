"""Flat binary archive for parameters and other named float tensors.

Layout: magic ``HSTTN1``, u32 record count, then per record a u32
name length, UTF-8 name, u32 ndim, u32 dims, and the values as
little-endian float32.  Records load as stored, in float32.  Every value
is finite: a save refuses any other, and a load rejects it.
"""

from __future__ import annotations

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


def load_archive(path):
    """Read an archive back as an ordered name -> float32 array dict.

    The arrays are read-only views of the file's bytes, as stored; no
    record is copied or widened.  A record holding a non-finite value is
    an error.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint archive")
    off = len(MAGIC)

    def u32():
        nonlocal off
        if off + 4 > len(blob):
            raise CheckpointError(f"{path}: truncated archive")
        (v,) = struct.unpack_from("<I", blob, off)
        off += 4
        return v

    count = u32()
    out = {}
    for _ in range(count):
        nlen = u32()
        try:
            name = blob[off : off + nlen].decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: record name is not UTF-8") from None
        off += nlen
        ndim = u32()
        shape = tuple(u32() for _ in range(ndim))
        size = 1  # a Python int: a product of u32 dims must not wrap
        for dim in shape:
            size *= dim
        if off + 4 * size > len(blob):
            raise CheckpointError(f"{path}: truncated data for record {name!r}")
        out[name] = np.frombuffer(blob, dtype="<f4", count=size, offset=off).reshape(shape)
        if not _finite(out[name]):
            raise CheckpointError(f"{path}: non-finite values in record {name!r}")
        off += 4 * size
    if off != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - off} trailing bytes after last record")
    return out


def verify_names_shapes(loaded, expected):
    """Check that a loaded archive matches expected name -> shape pairs."""
    missing = sorted(set(expected) - set(loaded))
    extra = sorted(set(loaded) - set(expected))
    if missing or extra:
        raise CheckpointError(f"parameter names disagree (missing={missing}, extra={extra})")
    for name, shape in expected.items():
        if loaded[name].shape != tuple(shape):
            raise CheckpointError(
                f"shape mismatch for {name!r}: checkpoint {loaded[name].shape}, model {tuple(shape)}"
            )
