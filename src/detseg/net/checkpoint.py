"""Binary model checkpoints.

Little-endian container: magic ``NNAD``, u32 version, u64-length-prefixed
UTF-8 config JSON, u64 tensor count, then per tensor a u32-length-prefixed
UTF-8 name, u32 ndim, u64 dims, and raw float64 data. See docs/FORMATS.md.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from typing import Mapping

import numpy as np

__all__ = ["MAGIC", "VERSION", "write_atomic", "save_checkpoint", "load_checkpoint"]

MAGIC = b"NNAD"
VERSION = 1


def write_atomic(path: str, payload: bytes) -> None:
    """Write ``payload`` to a temporary file beside ``path``, then rename it over ``path``.

    The file appears complete or not at all, and an existing file stays as
    it was until the rename.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
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
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise ValueError(f"truncated checkpoint file: {self.path}")
        out = self.data[self.pos : self.pos + count]
        self.pos += count
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def load_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        reader = _Reader(fh.read(), path)
    if reader.take(4) != MAGIC:
        raise ValueError(f"not a model checkpoint (bad magic): {path}")
    version = reader.u32()
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version} (expected {VERSION}): {path}")
    config = json.loads(reader.take(reader.u64()).decode("utf-8"))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(reader.u64()):
        name = reader.take(reader.u32()).decode("utf-8")
        ndim = reader.u32()
        shape = tuple(reader.u64() for _ in range(ndim))
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(reader.take(count * 8), dtype="<f8").reshape(shape)
        if not np.isfinite(arr).all():
            raise ValueError(f"checkpoint {path}: tensor {name!r} has non-finite values")
        tensors[name] = arr.astype(np.float64)
    if reader.pos != len(reader.data):
        raise ValueError(f"trailing bytes after checkpoint payload: {path}")
    return config, tensors
