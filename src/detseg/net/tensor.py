"""Minimal NCHW tensor wrapper used at the network boundary."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Tensor"]


@dataclass
class Tensor:
    """A float64 N x C x H x W array.

    It survives only as the type of :meth:`DetSegModel.forward`'s outputs and
    of ``SceneSample.image``, because ``perfbench/workloads.py`` reads
    ``.data`` from both; it can go once the benchmark reads arrays.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape
