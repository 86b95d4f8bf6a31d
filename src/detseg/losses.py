"""Training losses, multi-task uncertainty weighting, and the LR schedule.

Every loss returns ``(value, gradient)`` where the gradient is taken with
respect to the raw network outputs (logits, deltas, embeddings). Reductions
are means over the contributing elements so magnitudes do not depend on how
many anchors or pixels an image happens to have. Excluded elements (ignore
labels, inactive anchors) contribute neither to the value nor the gradient.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "FOREGROUND",
    "BACKGROUND",
    "IGNORE",
    "FocalParams",
    "LrSchedule",
    "TASK_NAMES",
    "focal_loss",
    "cross_entropy",
    "smooth_l1",
    "contrastive_loss",
    "kendall_total",
    "poly_lr",
]

log = logging.getLogger(__name__)

# Per-anchor objectness labels.
FOREGROUND = 1
BACKGROUND = 0
IGNORE = -1

TASK_NAMES = ("objectness", "class", "box", "embedding", "segmentation")


@dataclass(frozen=True)
class FocalParams:
    alpha: float = 1.0
    gamma: float = 2.0

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.gamma < 0:
            raise ValueError(f"need alpha > 0 and gamma >= 0, got {self}")


@dataclass(frozen=True)
class LrSchedule:
    base_lr: float = 0.001
    max_iter: int = 300_000
    power: float = 0.9

    def __post_init__(self) -> None:
        if self.base_lr <= 0 or self.max_iter <= 0:
            raise ValueError(f"need positive base_lr and max_iter, got {self}")


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def focal_loss(
    logits: np.ndarray,
    targets: np.ndarray,
    params: FocalParams = FocalParams(),
) -> tuple[float, np.ndarray]:
    """Focal loss on two-way softmax objectness logits.

    ``logits`` is (A, 2) with channel 0 = background, channel 1 = foreground;
    ``targets`` is (A,) holding FOREGROUND, BACKGROUND or IGNORE. The loss is
    the mean over non-ignored anchors of ``-alpha * (1 - p_t)^gamma * ln p_t``
    with ``p_t`` the probability of the labeled side.
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets)
    if logits.ndim != 2 or logits.shape[1] != 2:
        raise ValueError(f"expected (A, 2) logits, got {logits.shape}")
    if targets.shape != (logits.shape[0],):
        raise ValueError(f"targets shape {targets.shape} does not match logits {logits.shape}")

    grad = np.zeros_like(logits)
    mask = targets != IGNORE
    n = int(mask.sum())
    if n == 0:
        log.warning("focal_loss: every anchor is don't-care; returning zero loss")
        return 0.0, grad

    z = logits[mask]
    t = targets[mask].astype(np.int64)
    lp = _log_softmax(z)
    rows = np.arange(len(t))
    lp_t = lp[rows, t]
    p_t = np.exp(lp_t)
    one_m = 1.0 - p_t

    alpha, gamma = params.alpha, params.gamma
    loss = float(np.mean(-alpha * one_m**gamma * lp_t))

    # d/dz_t of -alpha (1-p)^gamma ln p, written without divisions so the
    # p -> 0 and p -> 1 endpoints stay finite.
    g_t = alpha * (gamma * p_t * one_m**gamma * lp_t - one_m ** (gamma + 1.0))
    g = np.zeros_like(z)
    g[rows, t] = g_t / n
    g[rows, 1 - t] = -g_t / n
    grad[mask] = g
    return loss, grad


def cross_entropy(
    logits: np.ndarray,
    targets: np.ndarray,
    ignore: int = -1,
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over non-ignored rows of (M, C) logits."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets)
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise ValueError(f"expected (M, C) logits with C >= 2, got {logits.shape}")
    if targets.shape != (logits.shape[0],):
        raise ValueError(f"targets shape {targets.shape} does not match logits {logits.shape}")

    n_classes = logits.shape[1]
    mask = targets != ignore
    grad = np.zeros_like(logits)
    n = int(mask.sum())
    if n == 0:
        log.warning("cross_entropy: every element is ignored; returning zero loss")
        return 0.0, grad

    t = targets[mask].astype(np.int64)
    if np.any(t < 0) or np.any(t >= n_classes):
        bad = t[(t < 0) | (t >= n_classes)]
        raise ValueError(f"target ids {np.unique(bad).tolist()} out of range for {n_classes} classes")

    lp = _log_softmax(logits[mask])
    rows = np.arange(len(t))
    loss = float(np.mean(-lp[rows, t]))
    g = np.exp(lp)
    g[rows, t] -= 1.0
    grad[mask] = g / n
    return loss, grad


def smooth_l1(
    pred: np.ndarray,
    target: np.ndarray,
    active: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Huber-style box regression loss, averaged over active anchors.

    Per active anchor the four delta components contribute
    ``0.5 x^2`` for ``|x| < 1`` and ``|x| - 0.5`` otherwise.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    active = np.asarray(active, dtype=bool)
    if pred.shape != target.shape:
        raise ValueError(f"pred {pred.shape} and target {target.shape} differ")
    if active.shape != (pred.shape[0],):
        raise ValueError(f"active mask shape {active.shape} does not match {pred.shape}")

    grad = np.zeros_like(pred)
    n = int(active.sum())
    if n == 0:
        log.warning("smooth_l1: no active anchors; returning zero loss")
        return 0.0, grad

    x = pred[active] - target[active]
    small = np.abs(x) < 1.0
    terms = np.where(small, 0.5 * x * x, np.abs(x) - 0.5)
    loss = float(terms.sum() / n)
    grad[active] = np.where(small, x, np.sign(x)) / n
    return loss, grad


def contrastive_loss(
    embeddings: np.ndarray,
    instance_ids: np.ndarray,
    margin: float = 1.0,
) -> tuple[float, np.ndarray]:
    """Pairwise embedding loss over all unordered pairs of active anchors.

    Same-instance pairs contribute the squared distance, different-instance
    pairs the squared hinge ``max(0, margin - d)^2``; the result is the mean
    over pairs.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    ids = np.asarray(instance_ids)
    if emb.ndim != 2:
        raise ValueError(f"expected (P, E) embeddings, got {emb.shape}")
    if ids.shape != (emb.shape[0],):
        raise ValueError(f"instance ids shape {ids.shape} does not match {emb.shape}")

    n = emb.shape[0]
    grad = np.zeros_like(emb)
    if n < 2:
        log.warning("contrastive_loss: fewer than two active anchors; returning zero loss")
        return 0.0, grad

    diff = emb[:, None, :] - emb[None, :, :]
    d2 = np.einsum("ije,ije->ij", diff, diff)
    d = np.sqrt(d2)
    same = ids[:, None] == ids[None, :]
    hinge = np.clip(margin - d, 0.0, None)

    iu, ju = np.triu_indices(n, k=1)
    pair_terms = np.where(same[iu, ju], d2[iu, ju], hinge[iu, ju] ** 2)
    n_pairs = len(iu)
    loss = float(pair_terms.sum() / n_pairs)

    # Symmetric per-pair coefficients c_ij such that the gradient of each
    # pair term w.r.t. e_i is c_ij * (e_i - e_j). The hinge gradient at
    # d == 0 is taken as zero (subgradient choice).
    coeff = np.zeros((n, n))
    coeff[same] = 2.0
    neg = ~same & (d > 0.0) & (d < margin)
    coeff[neg] = -2.0 * hinge[neg] / d[neg]
    np.fill_diagonal(coeff, 0.0)
    grad = np.einsum("ij,ije->ie", coeff, diff) / n_pairs
    return loss, grad


def kendall_total(
    losses: Sequence[float],
    s: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Homoscedastic-uncertainty total: ``sum_k exp(-s_k) L_k + s_k / 2``.

    Returns the total, the per-task weights ``exp(-s_k)`` (the factor to
    apply to each task's upstream gradient), and the gradient with respect
    to ``s``.
    """
    values = np.asarray(losses, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if values.shape != s.shape:
        raise ValueError(f"losses shape {values.shape} does not match s shape {s.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"non-finite task losses: {values}")
    weights = np.exp(-s)
    total = float(np.sum(weights * values + 0.5 * s))
    ds = -weights * values + 0.5
    return total, weights, ds


def poly_lr(iteration: int, sched: LrSchedule) -> float:
    """Polynomial decay: ``base_lr * (1 - iter / max_iter) ** power``."""
    if iteration < 0 or iteration > sched.max_iter:
        raise ValueError(f"iteration {iteration} outside [0, {sched.max_iter}]")
    return sched.base_lr * (1.0 - iteration / sched.max_iter) ** sched.power
