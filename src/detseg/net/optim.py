"""Adam optimizer with bias correction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .layers import Param

__all__ = ["AdamState", "adam_step"]

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates for a fixed parameter list."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: Sequence[Param]) -> "AdamState":
        return cls(m=[np.zeros_like(p.data) for p in params], v=[np.zeros_like(p.data) for p in params])


def adam_step(params: Sequence[Param], state: AdamState, lr: float) -> None:
    """One in-place Adam update from the gradients stored on the params."""
    if len(params) != len(state.m):
        raise ValueError(f"state tracks {len(state.m)} params, got {len(params)}")
    state.step += 1
    c1 = 1.0 - BETA1**state.step
    c2 = 1.0 - BETA2**state.step
    for p, m, v in zip(params, state.m, state.v):
        g = p.grad
        if g.shape != m.shape:
            raise ValueError(f"gradient shape {g.shape} does not match state {m.shape}")
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + EPS)
