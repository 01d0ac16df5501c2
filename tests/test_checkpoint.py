import re
import struct

import numpy as np
import pytest

from crowdcast.checkpoint import (
    MAGIC,
    CheckpointError,
    load_archive,
    save_archive,
    verify_names_shapes,
)


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "a/w": rng.normal(size=(3, 4)),
        "a/b": rng.normal(size=(4,)),
        "deep/nested/name": rng.normal(size=(2, 2, 2)),
    }
    path = tmp_path / "test.ckpt"
    save_archive(path, arrays)
    loaded = load_archive(path)
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert loaded[name].shape == arrays[name].shape
        # storage is float32; round-tripping the loaded values is exact
        np.testing.assert_allclose(loaded[name], arrays[name], atol=1e-6)
        # records load as stored
        assert loaded[name].dtype == np.float32
        np.testing.assert_array_equal(loaded[name], arrays[name].astype(np.float32))
    save_archive(tmp_path / "again.ckpt", loaded)
    reloaded = load_archive(tmp_path / "again.ckpt")
    for name in arrays:
        np.testing.assert_array_equal(reloaded[name], loaded[name])


def test_magic_header(tmp_path):
    path = tmp_path / "x.ckpt"
    save_archive(path, {"w": np.zeros(2)})
    blob = path.read_bytes()
    assert blob.startswith(MAGIC)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(CheckpointError):
        load_archive(bad)


def test_truncation_detected(tmp_path):
    path = tmp_path / "x.ckpt"
    save_archive(path, {"w": np.arange(16.0)})
    blob = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(blob[:-8])
    with pytest.raises(CheckpointError):
        load_archive(cut)


def test_verify_names_and_shapes():
    loaded = {"w": np.zeros((2, 3)), "b": np.zeros(3)}
    verify_names_shapes(loaded, {"w": (2, 3), "b": (3,)})
    with pytest.raises(CheckpointError):
        verify_names_shapes(loaded, {"w": (2, 3)})  # extra name
    with pytest.raises(CheckpointError):
        verify_names_shapes(loaded, {"w": (2, 3), "b": (3,), "c": (1,)})  # missing
    with pytest.raises(CheckpointError):
        verify_names_shapes(loaded, {"w": (3, 2), "b": (3,)})  # shape


def test_deterministic_bytes(tmp_path):
    arrays = {"b": np.ones(3), "a": np.arange(4.0)}
    save_archive(tmp_path / "one.ckpt", arrays)
    save_archive(tmp_path / "two.ckpt", arrays)
    assert (tmp_path / "one.ckpt").read_bytes() == (tmp_path / "two.ckpt").read_bytes()


def test_record_size_does_not_wrap(tmp_path):
    """Four dims of 65536 multiply to 2**64 records, which wrap to 0 in
    int64; the record must read as truncated, not as empty."""
    blob = MAGIC + struct.pack("<II", 1, 1) + b"w" + struct.pack("<5I", 4, *[65536] * 4)
    path = tmp_path / "wrap.ckpt"
    path.write_bytes(blob)
    with pytest.raises(CheckpointError, match="truncated data for record 'w'"):
        load_archive(path)


@pytest.mark.parametrize("value", [1e39, -1e39, np.inf, np.nan])
def test_save_refuses_non_finite_values(tmp_path, value):
    """A value beyond float32's range would be stored as inf; the save
    refuses it, and the other non-finite values, before opening the file."""
    path = tmp_path / "x.ckpt"
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: non-finite values in record 'b'$"):
        save_archive(path, {"a": np.zeros(3), "b": np.array([1.0, value])})
    assert not path.exists()


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_load_rejects_non_finite_values(tmp_path, value):
    path = tmp_path / "x.ckpt"
    save_archive(path, {"a": np.zeros(2), "b": np.ones(3)})
    blob = bytearray(path.read_bytes())
    blob[-4:] = struct.pack("<f", value)  # the last value of the last record
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: non-finite values in record 'b'$"):
        load_archive(path)
