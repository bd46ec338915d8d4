"""EMLT binary tensor files.

Layout (all little-endian):
    magic   4 bytes  b"EMLT"
    version u16      currently 1
    dtype   u16      1 = float32
    ndim    u16
    dims    ndim * u64
    payload row-major little-endian values
"""

import contextlib
import math
import os
import struct

import numpy as np

from .errors import DataError

MAGIC = b"EMLT"
VERSION = 1
DTYPE_F32 = 1

_DTYPE_CODES = {DTYPE_F32: np.dtype("<f4")}


class TensorFormatError(DataError):
    pass


@contextlib.contextmanager
def atomic_write(path, mode="wb", encoding=None):
    """Open a new temporary file beside `path` for writing. When the block
    ends normally the file is moved onto `path` with os.replace; when it
    raises, the temporary file is removed. Either way no reader ever sees
    a partly written `path`."""
    path = os.fspath(path)
    tmp = "%s.%s.tmp" % (path, os.urandom(6).hex())
    try:
        with open(tmp, mode.replace("w", "x"), encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_tensor(path, array):
    """Write a numpy array to an EMLT file (stored as float32), atomically."""
    arr = np.ascontiguousarray(array, dtype="<f4")
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HHH", VERSION, DTYPE_F32, arr.ndim))
        fh.write(struct.pack("<%dQ" % arr.ndim, *arr.shape))
        fh.write(arr.tobytes())


def _read_exact(fh, size, path, what):
    data = fh.read(size)
    if len(data) != size:
        raise TensorFormatError("truncated %s in %s: %d of %d bytes"
                                % (what, path, len(data), size))
    return data


def read_tensor(path):
    """Read an EMLT file back into a numpy array."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise TensorFormatError("bad magic %r in %s" % (magic, path))
        version, dtype_code, ndim = struct.unpack(
            "<HHH", _read_exact(fh, 6, path, "header"))
        if version != VERSION:
            raise TensorFormatError("unsupported version %d in %s" % (version, path))
        if dtype_code not in _DTYPE_CODES:
            raise TensorFormatError("unknown dtype code %d in %s" % (dtype_code, path))
        dims = struct.unpack("<%dQ" % ndim, _read_exact(fh, 8 * ndim, path, "dims"))
        dtype = _DTYPE_CODES[dtype_code]
        size = math.prod(dims) * dtype.itemsize
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        if size > remaining:
            raise TensorFormatError(
                "truncated payload in %s: dims %s need %d bytes, %d remain"
                % (path, list(dims), size, remaining))
        return np.frombuffer(fh.read(size), dtype=dtype).reshape(dims).copy()
