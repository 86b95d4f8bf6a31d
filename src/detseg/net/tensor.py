"""Minimal array wrapper used at the network boundary."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Tensor"]


@dataclass
class Tensor:
    """An array, held as given.

    It survives only as the type of :meth:`DetSegModel.forward`'s float64
    outputs and of ``SceneSample``'s float64 ``image`` and uint8
    ``label_map``, because ``perfbench/workloads.py`` reads ``.data`` from
    them; it can go once the benchmark reads arrays.
    """

    data: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape
