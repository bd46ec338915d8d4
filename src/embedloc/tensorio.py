"""EMLT binary tensor files, tensor sets (named EMLT tensors beside the
JSON header that indexes them) built from them, and the atomic writers
and checked JSON reader every artifact goes through.

Layout (all little-endian):
    magic   4 bytes  b"EMLT"
    version u16      currently 1
    dtype   u16      1 = float32
    ndim    u16
    dims    ndim * u64
    payload row-major little-endian values
"""

import contextlib
import csv
import hashlib
import json
import math
import os
import struct

import numpy as np

from .errors import DataError

MAGIC = b"EMLT"
VERSION = 1
DTYPE_F32 = 1
F32 = np.dtype("<f4")   # the one stored dtype, written with code DTYPE_F32


class TensorFormatError(DataError):
    pass


@contextlib.contextmanager
def atomic_write(path, mode="wb", encoding=None):
    """Open a new temporary file beside `path` for writing. When the block
    ends normally the file is moved onto `path` with os.replace; when it
    raises, the temporary file is removed. Either way no reader ever sees
    a partly written `path`. Text mode writes line endings untranslated,
    as the csv module requires. A missing directory for `path` raises
    DataError naming that directory."""
    path = os.fspath(path)
    tmp = "%s.%s.tmp" % (path, os.urandom(6).hex())
    newline = None if "b" in mode else ""
    try:
        fh = open(tmp, mode.replace("w", "x"), encoding=encoding, newline=newline)
    except FileNotFoundError:
        raise DataError("cannot write %s: directory %s does not exist"
                        % (path, os.path.dirname(path) or ".")) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_json(path, obj):
    """Write `obj` as indented JSON, atomically."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)


def write_csv(path, header, rows):
    """Write a CSV file of one header row and then `rows`, atomically."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_json(path):
    """The JSON document in `path`; a file that is not valid UTF-8 JSON,
    or nests too deeply to parse, raises DataError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:   # includes bad UTF-8
            raise DataError("%s is not valid JSON: %s" % (path, exc))


def write_tensor(path, array):
    """Write an array to an EMLT file as float32, atomically; return what was stored."""
    arr = np.ascontiguousarray(array, dtype=F32)
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HHH", VERSION, DTYPE_F32, arr.ndim))
        fh.write(struct.pack("<%dQ" % arr.ndim, *arr.shape))
        fh.write(arr)
    return arr


def _read_exact(fh, size, path, what):
    data = fh.read(size)
    if len(data) != size:
        raise TensorFormatError("truncated %s in %s: %d of %d bytes"
                                % (what, path, len(data), size))
    return data


def read_tensor(path):
    """Read an EMLT file back as it is stored: a read-only float32 numpy
    array. Callers that compute in float64 convert it, which is exact."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise TensorFormatError("bad magic %r in %s" % (magic, path))
        version, dtype_code, ndim = struct.unpack(
            "<HHH", _read_exact(fh, 6, path, "header"))
        if version != VERSION:
            raise TensorFormatError("unsupported version %d in %s" % (version, path))
        if dtype_code != DTYPE_F32:
            raise TensorFormatError("unknown dtype code %d in %s" % (dtype_code, path))
        dims = struct.unpack("<%dQ" % ndim, _read_exact(fh, 8 * ndim, path, "dims"))
        size = math.prod(dims) * F32.itemsize
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        if size > remaining:
            raise TensorFormatError(
                "truncated payload in %s: dims %s need %d bytes, %d remain"
                % (path, list(dims), size, remaining))
        try:
            return np.frombuffer(fh.read(size), dtype=F32).reshape(dims)
        except ValueError as exc:   # too many dims, or a zero-size shape numpy rejects
            raise TensorFormatError("dims %s in %s: %s" % (list(dims), path, exc))


def save_params(path, tensors, header):
    """Write a tensor set: one EMLT file per named tensor beside the JSON
    header `path`, then the header, holding `header` under a "tensors"
    index of each file's name, dims and SHA-256 of its stored values."""
    folder = os.path.dirname(path)
    os.makedirs(folder or ".", exist_ok=True)
    index = {}
    for name, tensor in tensors.items():
        fname = name + ".emlt"
        stored = write_tensor(os.path.join(folder, fname), tensor)
        index[name] = {"file": fname, "dims": list(stored.shape),
                       "sha256": hashlib.sha256(stored).hexdigest()}
    write_json(path, dict({"tensors": index}, **header))


def load_params(path):
    """Read a tensor set written by save_params from its header `path`:
    (tensors as float64 arrays by name, header). Tensor files are bare
    names beside the header; a header that names one elsewhere raises
    DataError naming the header. A tensor whose shape differs from the
    dims the header gives it raises DataError naming its file, and one
    whose values differ from its digest raises DataError naming both."""
    header = read_json(path)
    index = header.get("tensors") if isinstance(header, dict) else None
    if not (isinstance(index, dict) and all(
            isinstance(meta, dict) and isinstance(meta.get("file"), str)
            for meta in index.values())):
        raise DataError("%s has no valid tensor index" % path)
    folder = os.path.dirname(path)
    tensors = {}
    for name, meta in index.items():
        fname = meta["file"]
        if os.path.basename(fname) != fname or fname in ("", ".", ".."):
            raise DataError("%s names tensor file %r, which is not a bare file"
                            " name in %s" % (path, fname, folder or "."))
        tensor_path = os.path.join(folder, fname)
        stored = read_tensor(tensor_path)
        if list(stored.shape) != meta.get("dims"):
            raise DataError("%s holds a tensor of dims %s, but %s gives dims %s"
                            % (tensor_path, list(stored.shape), path,
                               meta.get("dims")))
        if hashlib.sha256(stored).hexdigest() != meta.get("sha256"):
            raise DataError("%s does not match the SHA-256 that %s gives it: a"
                            " tensor from another write, or a set written"
                            " before digests" % (tensor_path, path))
        tensors[name] = stored.astype(float)
    return tensors, header
