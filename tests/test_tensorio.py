import hashlib
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from embedloc import tensorio
from embedloc.errors import DataError


def test_roundtrip_2d(tmp_path):
    arr = np.arange(12, dtype=np.float32).reshape(3, 4) / 7.0
    path = tmp_path / "a.emlt"
    tensorio.write_tensor(path, arr)
    back = tensorio.read_tensor(path)
    assert back.shape == (3, 4) and back.dtype == np.float32
    assert not back.flags.writeable
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


def _payload_sha256(path):
    """SHA-256 of an EMLT file's values: the bytes after its dims."""
    data = path.read_bytes()
    ndim = struct.unpack("<H", data[8:10])[0]
    return hashlib.sha256(data[10 + 8 * ndim:]).hexdigest()


def test_float64_input_is_stored_as_little_endian_float32(tmp_path):
    arr = np.arange(12.0).reshape(3, 4) / 7.0 + 1e-9
    payload = arr.astype("<f4").tobytes()
    path = tmp_path / "a.emlt"
    stored = tensorio.write_tensor(path, arr)
    assert path.read_bytes() == (b"EMLT" + struct.pack("<HHH", 1, 1, 2)
                                 + struct.pack("<2Q", 3, 4) + payload)
    assert stored.dtype == np.dtype("<f4") and stored.tobytes() == payload
    tensorio.save_params(tmp_path / "p" / "header.json", {"w": arr}, {})
    index = json.loads((tmp_path / "p" / "header.json").read_text())["tensors"]
    assert index["w"]["sha256"] == hashlib.sha256(payload).hexdigest()
    assert (tmp_path / "p" / "w.emlt").read_bytes() == path.read_bytes()


def test_unknown_dtype_code_is_rejected(tmp_path):
    path = tmp_path / "f.emlt"
    path.write_bytes(tensorio.MAGIC + struct.pack("<HHH", 1, 2, 1)
                     + struct.pack("<Q", 1) + b"\0" * 8)
    with pytest.raises(tensorio.TensorFormatError,
                       match="^unknown dtype code 2 in .*f.emlt$"):
        tensorio.read_tensor(path)


def test_params_roundtrip_and_header_layout(tmp_path):
    tensors = {"w": np.arange(6.0).reshape(2, 3) / 7, "b": np.ones(3)}
    header = tmp_path / "p" / "header.json"
    tensorio.save_params(header, tensors, {"config": {"k": 1}, "step": 2})
    text = header.read_text(encoding="utf-8")
    assert text == json.dumps({
        "tensors": {"w": {"file": "w.emlt", "dims": [2, 3],
                          "sha256": _payload_sha256(tmp_path / "p" / "w.emlt")},
                    "b": {"file": "b.emlt", "dims": [3],
                          "sha256": _payload_sha256(tmp_path / "p" / "b.emlt")}},
        "config": {"k": 1}, "step": 2}, indent=2)
    assert sorted(os.listdir(tmp_path / "p")) == ["b.emlt", "header.json", "w.emlt"]
    back, header = tensorio.load_params(header)
    assert header["step"] == 2 and list(back) == ["w", "b"]
    for name, tensor in tensors.items():
        assert back[name].dtype == np.float64
        np.testing.assert_array_equal(back[name], tensor.astype(np.float32))


def test_params_header_may_sit_in_any_directory_beside_its_tensors(tmp_path):
    tensorio.save_params(tmp_path / "new" / "set.json", {"set": np.ones(2)}, {})
    assert sorted(os.listdir(tmp_path / "new")) == ["set.emlt", "set.json"]
    back, _ = tensorio.load_params(tmp_path / "new" / "set.json")
    np.testing.assert_array_equal(back["set"], np.ones(2))


@pytest.mark.parametrize("fname", ["../q/w.emlt", "sub/w.emlt", "ABS", "", ".", ".."],
                         ids=["parent", "subdir", "absolute", "empty", "dot", "dotdot"])
def test_params_tensor_file_must_be_a_bare_name(tmp_path, fname):
    # a set elsewhere holding the same tensor, so only the name can fail
    for d in ("p", "q", "p/sub"):
        tensorio.save_params(tmp_path / d / "header.json", {"w": np.ones(2)}, {})
    if fname == "ABS":
        fname = str(tmp_path / "q" / "w.emlt")
    header = tmp_path / "p" / "header.json"
    meta = json.loads(header.read_text())["tensors"]["w"]
    header.write_text(json.dumps(
        {"tensors": {"w": dict(meta, file=fname)}}))
    with pytest.raises(DataError, match="header.json"):
        tensorio.load_params(header)


def test_params_tensor_from_another_write_is_rejected(tmp_path):
    # an interrupted rewrite: the new w beside the old b and the old header
    header = tmp_path / "header.json"
    tensorio.save_params(header, {"w": np.zeros((2, 3)), "b": np.ones(3)}, {})
    old = header.read_bytes()
    tensorio.save_params(header, {"w": np.ones((2, 3)), "b": np.ones(3)}, {})
    header.write_bytes(old)
    with pytest.raises(DataError,
                       match="w.emlt does not match the SHA-256 that .*header.json"):
        tensorio.load_params(header)


@pytest.mark.parametrize("digest", [None, "0" * 64, 7],
                         ids=["absent", "other", "not-a-string"])
def test_params_tensor_without_its_digest_is_rejected(tmp_path, digest):
    # None: a set written before the header held digests
    header = tmp_path / "header.json"
    tensorio.save_params(header, {"w": np.ones(2)}, {})
    doc = json.loads(header.read_text())
    doc["tensors"]["w"].pop("sha256")
    if digest is not None:
        doc["tensors"]["w"]["sha256"] = digest
    header.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="header.json"):
        tensorio.load_params(header)


def test_params_header_write_that_fails_leaves_the_old_header(tmp_path, monkeypatch):
    header = tmp_path / "header.json"
    tensorio.save_params(header, {"w": np.ones(2)}, {"step": 1})
    before = header.read_bytes()

    def failing_dump(obj, fh, **kw):
        fh.write("{")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(tensorio.json, "dump", failing_dump)
    with pytest.raises(OSError, match="No space"):
        tensorio.save_params(header, {"w": np.ones(2)}, {"step": 2})
    assert sorted(os.listdir(tmp_path)) == ["header.json", "w.emlt"]
    assert header.read_bytes() == before


# ---------------------------------------------------------------------------
# fuzzing: whatever the bytes, read_tensor returns an array or raises
# DataError, and never allocates what a header asks for

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def read_or_data_error(path):
    try:
        return tensorio.read_tensor(path)
    except DataError:
        return None


@FUZZ
@given(data=st.binary(max_size=96))
def test_fuzz_random_bytes(tmp_path, data):
    path = tmp_path / "f.emlt"
    path.write_bytes(data)
    read_or_data_error(path)
    path.write_bytes(tensorio.MAGIC + data)
    read_or_data_error(path)


@FUZZ
@given(shape=st.lists(st.integers(0, 5), min_size=0, max_size=4),
       cut=st.integers(0, 200))
def test_fuzz_truncated_files(tmp_path, shape, cut):
    path = tmp_path / "f.emlt"
    tensorio.write_tensor(path, np.ones(shape))
    full = path.read_bytes()
    path.write_bytes(full[:cut])
    back = read_or_data_error(path)
    if cut >= len(full):
        np.testing.assert_array_equal(back, np.ones(shape))
    else:
        assert back is None


@FUZZ
@given(version=st.sampled_from([0, 1, 2]), dtype=st.sampled_from([0, 1, 2]),
       dims=st.lists(st.one_of(st.integers(0, 4), st.integers(0, 2 ** 64 - 1)),
                     max_size=70),
       payload=st.binary(max_size=64))
def test_fuzz_headers_never_size_an_allocation(tmp_path, version, dtype, dims,
                                               payload):
    path = tmp_path / "f.emlt"
    path.write_bytes(tensorio.MAGIC + struct.pack("<HHH", version, dtype, len(dims))
                     + struct.pack("<%dQ" % len(dims), *dims) + payload)
    tracemalloc.start()
    try:
        back = read_or_data_error(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    if back is not None:
        # each value returned was stored as 4 payload bytes
        assert back.shape == tuple(dims) and 4 * back.size <= len(payload)


@pytest.mark.parametrize("dims", [(0, 2 ** 64 - 1), (0, 2 ** 40, 2 ** 40), (1,) * 65])
def test_shapes_numpy_rejects_raise_data_error(tmp_path, dims):
    path = tmp_path / "f.emlt"
    path.write_bytes(tensorio.MAGIC + struct.pack("<HHH", 1, 1, len(dims))
                     + struct.pack("<%dQ" % len(dims), *dims) + b"\0" * 4)
    with pytest.raises(DataError, match="f.emlt"):
        tensorio.read_tensor(path)
