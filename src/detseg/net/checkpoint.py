"""Binary model checkpoints.

Little-endian container: magic ``NNAD``, u32 version, u64-length-prefixed
UTF-8 config JSON, u64 tensor count, then per tensor a u32-length-prefixed
UTF-8 name, u32 ndim, u64 dims, and raw float64 data. See docs/FORMATS.md.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from typing import Mapping

import numpy as np

__all__ = ["MAGIC", "VERSION", "write_atomic", "save_checkpoint", "load_checkpoint"]

MAGIC = b"NNAD"
VERSION = 2


def write_atomic(path: str, payload: bytes) -> None:
    """Write ``payload`` to a temporary file beside ``path``, then rename it over ``path``.

    The file appears complete or not at all, and an existing file stays as
    it was until the rename. The new file has the mode ``open()`` gives,
    0666 less the umask.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            # mkstemp creates the file 0600; the umask can only be read by setting it
            umask = os.umask(0o077)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(path: str, config: Mapping, tensors: Mapping[str, np.ndarray]) -> None:
    """Write atomically: the file appears complete or not at all."""
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    config_bytes = json.dumps(dict(config), sort_keys=True).encode("utf-8")
    blob += struct.pack("<Q", len(config_bytes))
    blob += config_bytes
    blob += struct.pack("<Q", len(tensors))
    for name, tensor in tensors.items():
        arr = np.ascontiguousarray(tensor, dtype="<f8")
        name_bytes = name.encode("utf-8")
        blob += struct.pack("<I", len(name_bytes))
        blob += name_bytes
        blob += struct.pack("<I", arr.ndim)
        for dim in arr.shape:
            blob += struct.pack("<Q", dim)
        blob += arr.tobytes()
    write_atomic(path, blob)


def load_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The config object and the tensors by name; every error names the file.

    The file is read once into a ``bytearray`` of its size, and each
    tensor is a writeable float64 view of its bytes there: no tensor is
    copied. The layout is checked first: truncation, a name that is not
    UTF-8 or that appears twice, trailing bytes. Then one pass over all the
    tensors checks that every value is finite; only when it fails are the
    tensors searched, in file order, for the first one to name. So a file
    with both a non-finite tensor and a fault of layout reports the fault
    of layout.
    """
    with open(path, "rb") as fh:
        # read straight into the buffer: bytearray(fh.read()) would copy the whole file once more
        data = bytearray(os.fstat(fh.fileno()).st_size)
        del data[fh.readinto(data):]
    pos = 0

    def take(count: int) -> int:
        """Step over the next ``count`` bytes and return where they start."""
        nonlocal pos
        start, pos = pos, pos + count
        if pos > len(data):
            raise ValueError(f"checkpoint {path}: truncated file")
        return start

    if data[take(4):pos] != MAGIC:
        raise ValueError(f"checkpoint {path}: not a model checkpoint (bad magic)")
    (version,) = struct.unpack_from("<I", data, take(4))
    if version != VERSION:
        raise ValueError(f"checkpoint {path}: unsupported checkpoint version {version} (expected {VERSION})")
    (length,) = struct.unpack_from("<Q", data, take(8))
    try:
        config = json.loads(data[take(length):pos].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError or nesting too deep
        raise ValueError(f"checkpoint {path}: malformed config JSON: {exc}") from exc
    tensors: dict[str, np.ndarray] = {}
    for _ in range(struct.unpack_from("<Q", data, take(8))[0]):
        (length,) = struct.unpack_from("<I", data, take(4))
        try:
            name = data[take(length):pos].decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"checkpoint {path}: tensor name is not UTF-8") from None
        if name in tensors:
            raise ValueError(f"checkpoint {path}: tensor {name!r} appears twice")
        (ndim,) = struct.unpack_from("<I", data, take(4))
        shape = struct.unpack_from(f"<{ndim}Q", data, take(8 * ndim))
        size = math.prod(shape)
        tensors[name] = np.frombuffer(data, dtype="<f8", count=size, offset=take(8 * size)).reshape(shape)
    if pos != len(data):
        raise ValueError(f"checkpoint {path}: trailing bytes after the payload")
    if tensors and not np.isfinite(np.concatenate(list(tensors.values()), axis=None)).all():
        name = next(name for name, arr in tensors.items() if not np.isfinite(arr).all())
        raise ValueError(f"checkpoint {path}: tensor {name!r} has non-finite values")
    return config, tensors
