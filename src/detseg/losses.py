"""Training losses, multi-task uncertainty weighting, and the LR schedule.

Every loss returns ``(value, gradient)`` where the gradient is taken with
respect to the raw network outputs (logits, deltas, embeddings). Reductions
are means over the rows a loss is given, so magnitudes do not depend on how
many anchors or pixels an image happens to have. A loss counts every row it
is given: :func:`detseg.net.train.objective` alone picks the rows that count
(anchors that are not don't-care, active anchors, labelled pixels), and a
loss rejects with ValueError an input it cannot average.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "FOREGROUND",
    "BACKGROUND",
    "IGNORE",
    "SEG_IGNORE",
    "LrSchedule",
    "TASK_NAMES",
    "MARGIN",
    "FOCAL_ALPHA",
    "FOCAL_GAMMA",
    "focal_loss",
    "cross_entropy",
    "smooth_l1",
    "contrastive_loss",
    "kendall_total",
    "poly_lr",
]

# Per-anchor objectness labels.
FOREGROUND = 1
BACKGROUND = 0
IGNORE = -1
# The label-map id of unlabelled pixels, which no loss or metric counts.
SEG_IGNORE = 255

TASK_NAMES = ("objectness", "class", "box", "embedding", "segmentation")

# The embedding distance beyond which different-instance pairs cost nothing.
MARGIN = 1.0
# The focal loss's weight and focusing exponent.
FOCAL_ALPHA = 1.0
FOCAL_GAMMA = 2.0


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


def focal_loss(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Focal loss on two-way softmax objectness logits, averaged over the given anchors.

    ``logits`` is (N, 2) with N >= 1, channel 0 = background and channel 1 =
    foreground; ``targets`` is (N,) holding FOREGROUND or BACKGROUND. The loss
    is the mean over the rows of ``-FOCAL_ALPHA * (1 - p_t)^FOCAL_GAMMA * ln p_t``
    with ``p_t`` the probability of the labeled side.
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets)
    if logits.ndim != 2 or logits.shape[1] != 2 or logits.shape[0] == 0:
        raise ValueError(f"expected (N, 2) logits with N >= 1, got {logits.shape}")
    if targets.shape != (logits.shape[0],):
        raise ValueError(f"targets shape {targets.shape} does not match logits {logits.shape}")
    bad = (targets != FOREGROUND) & (targets != BACKGROUND)
    if bad.any():
        raise ValueError(f"objectness targets {np.unique(targets[bad]).tolist()} are neither FOREGROUND nor BACKGROUND")

    t = targets.astype(np.int64)
    n = len(t)
    lp = _log_softmax(logits)
    rows = np.arange(n)
    lp_t = lp[rows, t]
    p_t = np.exp(lp_t)
    one_m = 1.0 - p_t

    alpha, gamma = FOCAL_ALPHA, FOCAL_GAMMA
    loss = float(np.mean(-alpha * one_m**gamma * lp_t))

    # d/dz_t of -alpha (1-p)^gamma ln p, written without divisions so the
    # p -> 0 and p -> 1 endpoints stay finite.
    g_t = alpha * (gamma * p_t * one_m**gamma * lp_t - one_m ** (gamma + 1.0))
    grad = np.zeros_like(logits)
    grad[rows, t] = g_t / n
    grad[rows, 1 - t] = -g_t / n
    return loss, grad


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over the rows of (N, C) logits, N >= 1, for class ids in [0, C)."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets)
    if logits.ndim != 2 or logits.shape[1] < 2 or logits.shape[0] == 0:
        raise ValueError(f"expected (N, C) logits with N >= 1 and C >= 2, got {logits.shape}")
    if targets.shape != (logits.shape[0],):
        raise ValueError(f"targets shape {targets.shape} does not match logits {logits.shape}")

    n_classes = logits.shape[1]
    t = targets.astype(np.int64)
    if np.any(t < 0) or np.any(t >= n_classes):
        bad = t[(t < 0) | (t >= n_classes)]
        raise ValueError(f"target ids {np.unique(bad).tolist()} out of range for {n_classes} classes")

    n = len(t)
    lp = _log_softmax(logits)
    rows = np.arange(n)
    loss = float(np.mean(-lp[rows, t]))
    grad = np.exp(lp)
    grad[rows, t] -= 1.0
    return loss, grad / n


def smooth_l1(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Huber-style box regression loss, averaged over the N >= 1 rows of (N, 4) deltas.

    Per row the four delta components contribute
    ``0.5 x^2`` for ``|x| < 1`` and ``|x| - 0.5`` otherwise.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.ndim != 2 or pred.shape[0] == 0 or pred.shape != target.shape:
        raise ValueError(f"expected pred and target of one (N, D) shape with N >= 1, got {pred.shape}, {target.shape}")

    n = pred.shape[0]
    x = pred - target
    small = np.abs(x) < 1.0
    terms = np.where(small, 0.5 * x * x, np.abs(x) - 0.5)
    loss = float(terms.sum() / n)
    return loss, np.where(small, x, np.sign(x)) / n


def contrastive_loss(
    embeddings: np.ndarray,
    instance_ids: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Pairwise embedding loss over all unordered pairs of the P >= 2 given anchors.

    Same-instance pairs contribute the squared distance, different-instance
    pairs the squared hinge ``max(0, MARGIN - d)^2``; the result is the mean
    over pairs.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    ids = np.asarray(instance_ids)
    if emb.ndim != 2 or emb.shape[0] < 2:
        raise ValueError(f"expected (P, E) embeddings with P >= 2, got {emb.shape}")
    if ids.shape != (emb.shape[0],):
        raise ValueError(f"instance ids shape {ids.shape} does not match {emb.shape}")

    n = emb.shape[0]
    diff = emb[:, None, :] - emb[None, :, :]
    d2 = np.einsum("ije,ije->ij", diff, diff)
    d = np.sqrt(d2)
    same = ids[:, None] == ids[None, :]
    hinge = np.clip(MARGIN - d, 0.0, None)

    iu, ju = np.triu_indices(n, k=1)
    pair_terms = np.where(same[iu, ju], d2[iu, ju], hinge[iu, ju] ** 2)
    n_pairs = len(iu)
    loss = float(pair_terms.sum() / n_pairs)

    # Symmetric per-pair coefficients c_ij such that the gradient of each
    # pair term w.r.t. e_i is c_ij * (e_i - e_j). The hinge gradient at
    # d == 0 is taken as zero (subgradient choice).
    coeff = np.zeros((n, n))
    coeff[same] = 2.0
    neg = ~same & (d > 0.0) & (d < MARGIN)
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
