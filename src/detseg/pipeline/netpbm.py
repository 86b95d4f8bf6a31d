"""Binary PPM (P6) and PGM (P5) image I/O, 8-bit only.

Writers emit ``P6\\n<w> <h>\\n255\\n`` (or P5) followed by the raw raster;
readers additionally accept arbitrary whitespace and ``#`` comments in the
header, per the format family conventions.
"""

from __future__ import annotations

import re

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


# Three header fields (width, height, maxval), each led by whitespace or
# "#" comments and ended by one whitespace byte, which after maxval ends the
# header. A comment runs to the end of its line: it never gives back a digit.
_HEADER = re.compile(3 * rb"(?:\s|#[^\r\n]*(?![^\r\n]))*(\d+)(?:\s|\Z)")


def _read_raster(path: str, magic: bytes, channels: int) -> np.ndarray:
    """The raster of the netpbm file at ``path`` as a read-only (H, W, channels) uint8 array.

    Every error names the file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != magic:
        raise ValueError(f"not a {magic.decode()} file: {path}")
    header = _HEADER.match(data, 2)
    if header is None:
        raise ValueError(f"malformed header in {path}")
    w, h, maxval = map(int, header.groups())
    if maxval != 255:
        raise ValueError(f"only 8-bit images are supported, got maxval {maxval} in {path}")
    if not w or not h:
        raise ValueError(f"empty {w}x{h} raster in {path}")
    expected = w * h * channels
    raster = data[header.end() : header.end() + expected]
    if len(raster) != expected:
        raise ValueError(f"truncated raster in {path}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w, channels)


def read_ppm(path: str) -> np.ndarray:
    """Read a P6 file into a float64 (3, H, W) array scaled to [0, 1]."""
    return _read_raster(path, b"P6", 3).transpose(2, 0, 1).astype(np.float64) / 255.0


def read_pgm(path: str) -> np.ndarray:
    """Read a P5 file into a (H, W) uint8 array."""
    return _read_raster(path, b"P5", 1)[:, :, 0].copy()
