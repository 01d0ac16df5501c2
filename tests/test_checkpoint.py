import errno
import re
import struct

import numpy as np
import pytest

from crowdcast import checkpoint
from crowdcast.checkpoint import (
    MAGIC,
    CheckpointError,
    read_records,
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
    loaded = dict(read_records(path))
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert loaded[name].shape == arrays[name].shape
        # storage is float32; round-tripping the loaded values is exact
        np.testing.assert_allclose(loaded[name], arrays[name], atol=1e-6)
        # records load as stored
        assert loaded[name].dtype == np.float32
        np.testing.assert_array_equal(loaded[name], arrays[name].astype(np.float32))
    save_archive(tmp_path / "again.ckpt", loaded)
    reloaded = dict(read_records(tmp_path / "again.ckpt"))
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
        dict(read_records(bad))


def test_truncation_detected(tmp_path):
    path = tmp_path / "x.ckpt"
    save_archive(path, {"w": np.arange(16.0)})
    blob = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(blob[:-8])
    with pytest.raises(CheckpointError):
        dict(read_records(cut))


def test_verify_names_and_shapes():
    loaded = {"w": (2, 3), "b": (3,)}
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
        dict(read_records(path))


def test_records_are_read_one_at_a_time(tmp_path):
    """The first record comes out before a fault in the second is read."""
    path = tmp_path / "x.ckpt"
    save_archive(path, {"a": np.arange(3.0), "b": np.ones(4)})
    path.write_bytes(path.read_bytes()[:-4])
    records = read_records(path)
    name, arr = next(records)
    assert name == "a" and not arr.flags.writeable
    np.testing.assert_array_equal(arr, [0.0, 1.0, 2.0])
    with pytest.raises(CheckpointError, match="truncated data for record 'b'$"):
        next(records)


HUGE = struct.pack("<I", 2**32 - 1)


@pytest.mark.parametrize("edit, reason", [
    (lambda blob: blob + b"\x00", "1 trailing bytes after last record"),
    (lambda blob: blob[:6] + HUGE + blob[10:], "truncated archive"),  # the record count
    (lambda blob: blob[:10] + HUGE + blob[14:], "truncated archive"),  # the first name length
])
def test_trailing_bytes_and_huge_lengths_rejected(tmp_path, edit, reason):
    """Bytes after the last record are an error, and a record count or
    name length of 2**32 - 1 is checked against the bytes left before any
    of them is read."""
    path = tmp_path / "x.ckpt"
    save_archive(path, {"a": np.zeros(2)})
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: {reason}$"):
        dict(read_records(path))


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
        dict(read_records(path))


def test_failed_write_keeps_the_previous_archive(tmp_path, monkeypatch):
    """A save that stops part-way (here a full disk after 200 bytes) used
    to leave a truncated archive where the previous one was."""
    path = tmp_path / "best.ckpt"
    save_archive(path, {"w": np.arange(64.0)})
    before = path.read_bytes()

    class FullDisk:
        def __init__(self, fh):
            self.fh, self.left = fh, 200

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            if len(data) > self.left:
                raise OSError(errno.ENOSPC, "No space left on device")
            self.left -= len(data)
            return self.fh.write(data)

    monkeypatch.setattr(checkpoint, "open", lambda *args: FullDisk(open(*args)), raising=False)
    with pytest.raises(OSError, match="No space left"):
        save_archive(path, {"w": np.ones(64)})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]
