"""Binary PPM (P6) and PGM (P5) image I/O, 8-bit only.

Writers emit ``P6\\n<w> <h>\\n255\\n`` (or P5) followed by the raw raster;
readers additionally accept arbitrary whitespace and ``#`` comments in the
header, per the format family conventions.
"""

from __future__ import annotations

import numpy as np

from ..net.checkpoint import write_atomic

__all__ = ["write_ppm", "read_ppm", "write_pgm", "read_pgm"]


def _to_bytes_image(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.dtype == np.uint8:
        return arr
    scaled = np.clip(np.rint(np.asarray(arr, dtype=np.float64) * 255.0), 0, 255)
    return scaled.astype(np.uint8)


def write_ppm(path: str, image: np.ndarray) -> None:
    """Write a (3, H, W) array; float inputs are taken as [0, 1] intensities."""
    img = _to_bytes_image(image)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError(f"expected (3, H, W) image, got shape {img.shape}")
    _, h, w = img.shape
    raster = img.transpose(1, 2, 0).tobytes()
    write_atomic(path, f"P6\n{w} {h}\n255\n".encode("ascii") + raster)


def write_pgm(path: str, image: np.ndarray) -> None:
    """Write a (H, W) uint8 array (label maps, instance maps)."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError(f"expected (H, W) image, got shape {img.shape}")
    if img.dtype != np.uint8:
        if img.min() < 0 or img.max() > 255:
            raise ValueError("PGM values must fit in 8 bits")
        img = img.astype(np.uint8)
    h, w = img.shape
    write_atomic(path, f"P5\n{w} {h}\n255\n".encode("ascii") + img.tobytes())


def _read_header(data: bytes, magic: bytes, path: str) -> tuple[int, int, int]:
    if data[:2] != magic:
        raise ValueError(f"not a {magic.decode()} file: {path}")
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token.isdigit():
            raise ValueError(f"malformed header in {path}")
        fields.append(int(token))
    pos += 1  # single whitespace byte before the raster
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError(f"only 8-bit images are supported, got maxval {maxval} in {path}")
    return w, h, pos


def read_ppm(path: str) -> np.ndarray:
    """Read a P6 file into a float64 (3, H, W) array scaled to [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    w, h, pos = _read_header(data, b"P6", path)
    expected = w * h * 3
    raster = data[pos : pos + expected]
    if len(raster) != expected:
        raise ValueError(f"truncated raster in {path}")
    img = np.frombuffer(raster, dtype=np.uint8).reshape(h, w, 3).transpose(2, 0, 1)
    return img.astype(np.float64) / 255.0


def read_pgm(path: str) -> np.ndarray:
    """Read a P5 file into a (H, W) uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    w, h, pos = _read_header(data, b"P5", path)
    expected = w * h
    raster = data[pos : pos + expected]
    if len(raster) != expected:
        raise ValueError(f"truncated raster in {path}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w).copy()
