import os

import numpy as np
import pytest

from embedloc import tensorio


def test_roundtrip_2d(tmp_path):
    arr = np.arange(12, dtype=np.float32).reshape(3, 4) / 7.0
    path = tmp_path / "a.emlt"
    tensorio.write_tensor(path, arr)
    back = tensorio.read_tensor(path)
    assert back.shape == (3, 4)
    np.testing.assert_array_equal(back, arr)


def test_roundtrip_1d_and_3d(tmp_path):
    for arr in (np.linspace(0, 1, 7), np.zeros((2, 3, 4))):
        path = tmp_path / "t.emlt"
        tensorio.write_tensor(path, arr)
        np.testing.assert_array_equal(tensorio.read_tensor(path),
                                      arr.astype(np.float32))


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.emlt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(tensorio.TensorFormatError):
        tensorio.read_tensor(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.emlt"
    tensorio.write_tensor(path, np.ones((4, 4)))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(tensorio.TensorFormatError):
        tensorio.read_tensor(path)


def test_format_error_is_a_data_error():
    from embedloc.errors import DataError
    assert issubclass(tensorio.TensorFormatError, DataError)


@pytest.mark.parametrize("cut", [6, 12, 14, 20])
def test_truncated_header_raises_data_error(tmp_path, cut):
    from embedloc.errors import DataError
    path = tmp_path / "t.emlt"
    tensorio.write_tensor(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(DataError, match="t.emlt"):
        tensorio.read_tensor(path)


def test_cut_payload_raises_data_error(tmp_path):
    from embedloc.errors import DataError
    path = tmp_path / "t.emlt"
    tensorio.write_tensor(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(DataError, match="t.emlt"):
        tensorio.read_tensor(path)


def test_header_dims_cannot_size_an_allocation(tmp_path):
    # a 2**62-element header with no payload fails on the size check,
    # before any read or allocation of that size
    import struct
    path = tmp_path / "huge.emlt"
    path.write_bytes(tensorio.MAGIC + struct.pack("<HHH", 1, 1, 2)
                     + struct.pack("<2Q", 2 ** 31, 2 ** 31))
    with pytest.raises(tensorio.TensorFormatError, match="truncated payload"):
        tensorio.read_tensor(path)


def test_write_that_fails_partway_leaves_no_file(tmp_path, monkeypatch):
    class FailingFile:
        """Writes the first chunk, then fails like a full disk."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, data):
            self.writes += 1
            if self.writes > 1:
                raise OSError(28, "No space left on device")
            return self.fh.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    real_open = open
    monkeypatch.setattr(tensorio, "open",
                        lambda *a, **k: FailingFile(real_open(*a, **k)),
                        raising=False)
    path = tmp_path / "a.emlt"
    with pytest.raises(OSError, match="No space"):
        tensorio.write_tensor(path, np.ones((3, 4)))
    assert os.listdir(tmp_path) == []
    # an existing file stays as it was
    monkeypatch.undo()
    tensorio.write_tensor(path, np.zeros(5))
    monkeypatch.setattr(tensorio, "open",
                        lambda *a, **k: FailingFile(real_open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError):
        tensorio.write_tensor(path, np.ones((3, 4)))
    monkeypatch.undo()
    assert os.listdir(tmp_path) == ["a.emlt"]
    np.testing.assert_array_equal(tensorio.read_tensor(path), np.zeros(5))
