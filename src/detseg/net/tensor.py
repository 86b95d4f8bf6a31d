"""Minimal NCHW tensor wrapper used at the network boundary."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Tensor", "as_data"]


@dataclass
class Tensor:
    """A float64 N x C x H x W array."""

    data: np.ndarray

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape


def as_data(x) -> np.ndarray:
    """Accept a Tensor or anything array-like and return a float64 ndarray."""
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)
