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


class _Reader:
    def __init__(self, data: bytes, path: str):
        self.view = memoryview(data)
        self.pos = 0
        self.path = path

    def take(self, count: int) -> memoryview:
        end = self.pos + count
        if end > len(self.view):
            raise ValueError(f"checkpoint {self.path}: truncated file")
        out = self.view[self.pos : end]
        self.pos = end
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def load_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The config object and the tensors by name; every error names the file."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read(), path)
    if reader.take(4) != MAGIC:
        raise ValueError(f"checkpoint {path}: not a model checkpoint (bad magic)")
    version = reader.u32()
    if version != VERSION:
        raise ValueError(f"checkpoint {path}: unsupported checkpoint version {version} (expected {VERSION})")
    config_bytes = reader.take(reader.u64())
    try:
        config = json.loads(str(config_bytes, "utf-8"))
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ValueError(f"checkpoint {path}: malformed config JSON: {exc}") from exc
    tensors: dict[str, np.ndarray] = {}
    for _ in range(reader.u64()):
        try:
            name = str(reader.take(reader.u32()), "utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"checkpoint {path}: tensor name is not UTF-8") from None
        if name in tensors:
            raise ValueError(f"checkpoint {path}: tensor {name!r} appears twice")
        ndim = reader.u32()
        shape = struct.unpack(f"<{ndim}Q", reader.take(8 * ndim))
        arr = np.frombuffer(reader.take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
        if not np.isfinite(arr).all():
            raise ValueError(f"checkpoint {path}: tensor {name!r} has non-finite values")
        tensors[name] = arr.astype(np.float64)
    if reader.pos != len(reader.view):
        raise ValueError(f"checkpoint {path}: trailing bytes after the payload")
    return config, tensors
