"""Built-in verification suites backing the ``selftest`` CLI command.

Each suite checks an implementation against an independent route: layers and
losses against central finite differences, target assignment against a
literal per-anchor re-application of the rule list, NMS against a quadratic
reference, and the box codec against its round-trip identity.
"""

from __future__ import annotations

import numpy as np

from .assign import AssignConfig, GroundTruthObject, assign_targets
from .geom import (
    AnchorTemplate,
    BBox,
    decode_array,
    encode,
    encode_array,
    iou,
    make_anchor_grid,
)
from .losses import contrastive_loss, cross_entropy, focal_loss, smooth_l1
from .net.layers import (
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    DepthwiseSeparableConv2d,
    MaxPool2x2,
    ReLU,
    ResidualBlock,
    Softmax,
    TransposedConv2d,
)
from .post import Detections, nms

__all__ = ["run_selftest", "check_layer_gradients", "check_loss_gradients",
           "check_assignment", "check_nms", "check_codec"]

FD_STEP = 1e-5
FD_TOLERANCE = 1e-4


def _fd_max_rel_err(value_fn, arrays: list[np.ndarray], analytic: list[np.ndarray]) -> float:
    """Max relative error between analytic gradients and central differences."""
    worst = 0.0
    for arr, grad in zip(arrays, analytic):
        fd = np.zeros_like(arr)
        flat = arr.reshape(-1)
        fd_flat = fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            hi = value_fn()
            flat[i] = orig - FD_STEP
            lo = value_fn()
            flat[i] = orig
            fd_flat[i] = (hi - lo) / (2.0 * FD_STEP)
        scale = max(float(np.abs(fd).max()), float(np.abs(grad).max()), 1e-3)
        worst = max(worst, float(np.abs(grad - fd).max()) / scale)
    return worst


# Finite differences are only valid away from non-differentiable points, so
# instance generators resample until every internal ReLU / maxpool / hinge
# input clears the kink by more than the FD step can bridge.
_KINK_MARGIN = 1e-3


def _maxpool_safe(x: np.ndarray) -> bool:
    n, c, h, w = x.shape
    windows = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(-1, 4)
    top2 = np.sort(windows, axis=1)[:, -2:]
    return float((top2[:, 1] - top2[:, 0]).min()) > _KINK_MARGIN


def _residual_safe(layer: ResidualBlock, x: np.ndarray) -> bool:
    a1 = layer.bn1.forward(x, training=True)
    h = layer.conv1.forward(layer.relu1.forward(a1, training=True), training=True)
    a2 = layer.bn2.forward(h, training=True)
    return min(float(np.abs(a1).min()), float(np.abs(a2).min())) > _KINK_MARGIN


def _layer_cases(rng: np.random.Generator):
    return [
        ("conv", lambda: Conv2d(2, 3, 3, rng=rng), (1, 2, 5, 5)),
        ("conv_stride2", lambda: Conv2d(2, 3, 3, stride=2, rng=rng), (1, 2, 6, 6)),
        ("conv_dilated", lambda: Conv2d(2, 2, 3, dilation=2, rng=rng), (1, 2, 6, 6)),
        ("depthwise_conv", lambda: DepthwiseConv2d(3, 3, rng=rng), (1, 3, 5, 5)),
        ("depthwise_separable_conv", lambda: DepthwiseSeparableConv2d(2, 3, 3, rng=rng), (1, 2, 5, 5)),
        ("transposed_conv", lambda: TransposedConv2d(2, 3, 3, stride=2, rng=rng), (1, 2, 3, 3)),
        ("maxpool", MaxPool2x2, (2, 2, 4, 4)),
        ("relu", ReLU, (2, 3, 4, 4)),
        ("batchnorm", lambda: BatchNorm2d(3), (2, 3, 4, 4)),
        ("softmax", Softmax, (2, 4, 3, 3)),
        ("residual_block", lambda: ResidualBlock(2, 3, dilation=2, rng=rng), (1, 2, 5, 5)),
    ]


def _safe_instance(name: str, make, shape, rng: np.random.Generator):
    for _ in range(50):
        layer = make()
        x = rng.standard_normal(shape)
        if name == "relu":
            x = x + _KINK_MARGIN * 2 * np.sign(x)
        if name == "maxpool" and not _maxpool_safe(x):
            continue
        if name == "residual_block" and not _residual_safe(layer, x):
            continue
        return layer, x
    raise RuntimeError(f"could not draw a kink-free instance for {name}")


def check_layer_gradients(instances: int = 3, seed: int = 0) -> list[tuple[str, float, bool]]:
    """Finite-difference check of input and parameter gradients per layer kind."""
    rng = np.random.default_rng(seed)
    results = []
    for name, make, shape in _layer_cases(rng):
        worst = 0.0
        for _ in range(instances):
            layer, x = _safe_instance(name, make, shape, rng)
            weight = rng.standard_normal(layer.forward(x, training=True).shape)

            def value():
                return float((layer.forward(x, training=True) * weight).sum())

            layer.forward(x, training=True)
            for _, p in layer.named_params():
                p.grad[...] = 0.0
            dx = layer.backward(weight.copy())
            arrays = [x] + [p.data for _, p in layer.named_params()]
            grads = [dx] + [p.grad for _, p in layer.named_params()]
            worst = max(worst, _fd_max_rel_err(value, arrays, grads))
        results.append((name, worst, worst <= FD_TOLERANCE))
    return results


def check_loss_gradients(instances: int = 3, seed: int = 0) -> list[tuple[str, float, bool]]:
    """Finite-difference check of every loss gradient."""
    rng = np.random.default_rng(seed)
    results = []

    def run(name, make_case):
        worst = 0.0
        for _ in range(instances):
            value_fn, arrays, grads = make_case()
            worst = max(worst, _fd_max_rel_err(value_fn, arrays, grads))
        results.append((name, worst, worst <= FD_TOLERANCE))

    def focal_case():
        logits = rng.standard_normal((8, 2))
        targets = rng.integers(-1, 2, size=8)
        _, grad = focal_loss(logits, targets)
        return (lambda: focal_loss(logits, targets)[0]), [logits], [grad]

    def ce_case():
        logits = rng.standard_normal((7, 4))
        targets = rng.integers(0, 4, size=7)
        targets[rng.integers(0, 7)] = -1
        _, grad = cross_entropy(logits, targets)
        return (lambda: cross_entropy(logits, targets)[0]), [logits], [grad]

    def sl1_case():
        pred = rng.standard_normal((6, 4)) * 1.5
        target = rng.standard_normal((6, 4)) * 1.5
        # keep |pred - target| away from the huber kink at 1
        gap = np.abs(pred - target) - 1.0
        pred[np.abs(gap) < 1e-3] += 0.01
        active = rng.random(6) < 0.7
        active[0] = True
        _, grad = smooth_l1(pred, target, active)
        return (lambda: smooth_l1(pred, target, active)[0]), [pred], [grad]

    def contrastive_case():
        for _ in range(50):
            emb = rng.standard_normal((5, 3))
            ids = rng.integers(0, 3, size=5)
            diff = emb[:, None, :] - emb[None, :, :]
            d = np.sqrt(np.einsum("ije,ije->ij", diff, diff))
            off = d[~np.eye(5, dtype=bool)]
            # stay clear of the hinge kink at d == margin and the d == 0 cusp
            if off.min() > 1e-3 and np.abs(off - 1.0).min() > 1e-3:
                break
        _, grad = contrastive_loss(emb, ids, margin=1.0)
        return (lambda: contrastive_loss(emb, ids, margin=1.0)[0]), [emb], [grad]

    run("focal_loss", focal_case)
    run("cross_entropy", ce_case)
    run("smooth_l1", sl1_case)
    run("contrastive_loss", contrastive_case)
    return results


def _assign_reference(grid, gts, image_w, image_h, cfg: AssignConfig) -> list[tuple]:
    """Literal per-anchor application of the assignment rules, scalar IoU and ``encode``.

    Returns ``(state, class_id, instance_id, delta)`` per anchor; -1 ids and a zero delta if not active.
    """
    n = len(grid)
    states = ["inactive"] * n
    reasons = ["default"] * n
    chosen = [-1] * n
    if gts:
        per_anchor = []
        for i in range(n):
            box = grid.box(i)
            overlaps = [iou(box, g.bbox) for g in gts]
            per_anchor.append(overlaps)
            ranked = sorted(range(len(gts)), key=lambda j: (-overlaps[j], j))
            b1 = overlaps[ranked[0]]
            b2 = overlaps[ranked[1]] if len(gts) > 1 else 0.0
            outside = (
                box.x_min < 0 or box.y_min < 0 or box.x_max > image_w or box.y_max > image_h
            )
            if outside and b1 >= cfg.dontcare_iou:
                states[i], reasons[i] = "dontcare", "border"
            elif b1 >= cfg.dontcare_iou and b2 >= cfg.dontcare_iou and (b1 - b2) < cfg.ambiguity_gap:
                states[i], reasons[i] = "inactive", "ambiguous"
            elif b1 > cfg.active_iou:
                states[i], reasons[i] = "active", "best"
                chosen[i] = ranked[0]
            elif b1 > cfg.dontcare_iou:
                states[i], reasons[i] = "dontcare", "band"
        for j in range(len(gts)):
            if any(chosen[i] == j and states[i] == "active" for i in range(n)):
                continue
            best_anchor, best_value = -1, -1.0
            for i in range(n):
                if per_anchor[i][j] > best_value:
                    best_anchor, best_value = i, per_anchor[i][j]
            if best_value > cfg.dontcare_iou and reasons[best_anchor] in ("default", "band"):
                states[best_anchor], reasons[best_anchor] = "active", "fallback"
                chosen[best_anchor] = j
    rows = []
    for i in range(n):
        if chosen[i] < 0:
            rows.append((states[i], -1, -1, (0.0, 0.0, 0.0, 0.0)))
        else:
            g = gts[chosen[i]]
            d = encode(grid.box(i), g.bbox)
            rows.append((states[i], g.class_id, g.instance_id, (d.tx, d.ty, d.tw, d.th)))
    return rows


def check_assignment(scenes: int = 100, seed: int = 0) -> tuple[int, int]:
    """Randomized scenes: every anchor's state, ids and delta must equal the reference's."""
    rng = np.random.default_rng(seed)
    mismatches = 0
    for _ in range(scenes):
        stride = int(rng.integers(4, 9))
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        n_templates = int(rng.integers(1, 11))
        templates = [
            AnchorTemplate(ratio=float(rng.uniform(0.3, 3.0)), area=float(rng.uniform(16, 900)))
            for _ in range(n_templates)
        ]
        image_w, image_h = cols * stride, rows * stride
        grid = make_anchor_grid(image_w, image_h, stride, templates)
        n_gts = int(rng.integers(0, 5))
        gts = []
        inside = np.flatnonzero(~grid.outside)
        for k in range(n_gts):
            if k % 2 == 0 and inside.size:  # a jittered anchor inside the image: likely active
                anchor = grid.boxes[int(rng.choice(inside))]
                size = anchor[2:] - anchor[:2]
                x0, y0 = (anchor[:2] + size * rng.uniform(-0.3, 0.3, size=2)).tolist()
                w, h = (size * rng.uniform(0.7, 1.3, size=2)).tolist()
            else:
                w = float(rng.uniform(3, image_w))
                h = float(rng.uniform(3, image_h))
                x0 = float(rng.uniform(-5, image_w - w + 5))
                y0 = float(rng.uniform(-5, image_h - h + 5))
            gts.append(GroundTruthObject(class_id=int(rng.integers(0, 3)),
                                         bbox=BBox(x0, y0, x0 + w, y0 + h), instance_id=k))
        expected = _assign_reference(grid, gts, image_w, image_h, AssignConfig())
        actual = assign_targets(grid, gts, image_w, image_h, AssignConfig())
        got = list(zip(actual.states(), actual.class_targets.tolist(), actual.instance_ids.tolist(),
                       map(tuple, actual.deltas.tolist())))
        if got != expected:
            mismatches += 1
    return scenes, mismatches


def _nms_reference(boxes: list[BBox], scores: list[float], classes: list[int], threshold: float) -> list[int]:
    remaining = sorted(range(len(boxes)), key=lambda i: -scores[i])
    kept = []
    while remaining:
        best = remaining.pop(0)
        kept.append(best)
        remaining = [
            i for i in remaining
            if classes[i] != classes[best] or iou(boxes[i], boxes[best]) <= threshold
        ]
    return kept


def _sparse_nms_instance(rng: np.random.Generator, count: int) -> tuple[list, list, list]:
    boxes, classes, scores = [], [], []
    for _ in range(count):
        x0 = float(rng.uniform(0, 80))
        y0 = float(rng.uniform(0, 80))
        w = float(rng.uniform(4, 30))
        h = float(rng.uniform(4, 30))
        boxes.append((x0, y0, x0 + w, y0 + h))
        classes.append(int(rng.integers(0, 3)))
        scores.append(float(rng.random()))
    return boxes, classes, scores


def _dense_nms_instance(rng: np.random.Generator, count: int) -> tuple[list, list, list]:
    """Integer boxes crowded on a 64x64 canvas, two classes and 16 score levels.

    Every other box comes with a twin of the same class and score shifted by
    a third of its width, at IoU exactly 0.5, so ties and IoUs at the
    threshold both occur many times.
    """
    boxes, classes, scores = [], [], []
    while len(boxes) < count:
        s = int(rng.integers(2, 7))
        h = int(rng.integers(4, 20))
        x0 = int(rng.integers(0, 64 - 4 * s))
        y0 = int(rng.integers(0, 64 - h))
        group = [(x0, y0, x0 + 3 * s, y0 + h)]
        if len(boxes) % 2 == 0:
            group.append((x0 + s, y0, x0 + 4 * s, y0 + h))
        boxes += group
        classes += [int(rng.integers(0, 2))] * len(group)
        scores += [int(rng.integers(0, 16)) / 15.0] * len(group)
    return boxes[:count], classes[:count], scores[:count]


# Crowded scenes checked after the sparse ones: large enough that NMS works
# through several blocks per class.
DENSE_NMS_INSTANCES = 3
DENSE_NMS_BOXES = 1200


def check_nms(instances: int = 100, boxes_per_instance: int = 50, seed: int = 0) -> tuple[int, int]:
    """NMS keep-sets against the quadratic reference.

    ``instances`` sparse scenes of ``boxes_per_instance`` boxes, then
    ``DENSE_NMS_INSTANCES`` crowded scenes of ``DENSE_NMS_BOXES`` boxes.
    """
    rng = np.random.default_rng(seed)
    mismatches = 0
    for k in range(instances + DENSE_NMS_INSTANCES):
        if k < instances:
            boxes, classes, scores = _sparse_nms_instance(rng, boxes_per_instance)
        else:
            boxes, classes, scores = _dense_nms_instance(rng, DENSE_NMS_BOXES)
        dets = Detections(np.array(boxes, dtype=np.float64), np.array(classes),
                          np.array(scores), np.zeros((len(boxes), 0)))
        expected = dets.take(_nms_reference([BBox(*b) for b in boxes], scores, classes, 0.5))
        kept = nms(dets, 0.5)
        if not (np.array_equal(kept.boxes, expected.boxes) and np.array_equal(kept.scores, expected.scores)
                and np.array_equal(kept.class_ids, expected.class_ids)):
            mismatches += 1
    return instances + DENSE_NMS_INSTANCES, mismatches


def check_codec(pairs: int = 2000, seed: int = 0) -> float:
    """Max round-trip error of decode(encode(anchor, gt)) over random pairs."""
    rng = np.random.default_rng(seed)
    wa = rng.uniform(0.5, 300, size=pairs)
    ha = rng.uniform(0.5, 300, size=pairs)
    xa = rng.uniform(-50, 350, size=pairs)
    ya = rng.uniform(-50, 350, size=pairs)
    anchors = np.stack([xa, ya, xa + wa, ya + ha], axis=1)
    wg = rng.uniform(0.5, 300, size=pairs)
    hg = rng.uniform(0.5, 300, size=pairs)
    xg = rng.uniform(-50, 350, size=pairs)
    yg = rng.uniform(-50, 350, size=pairs)
    gts = np.stack([xg, yg, xg + wg, yg + hg], axis=1)
    recovered = decode_array(anchors, encode_array(anchors, gts))
    scale = np.maximum(np.abs(gts), 1.0)
    return float((np.abs(recovered - gts) / scale).max())


def run_selftest() -> tuple[bool, list[str]]:
    """Run every suite at reduced size; returns (all passed, report lines)."""
    lines = []
    ok = True

    for name, err, passed in check_layer_gradients() + check_loss_gradients():
        ok &= passed
        lines.append(f"gradients {name}: max rel err {err:.2e} -> {'ok' if passed else 'FAIL'}")

    scenes, mismatches = check_assignment()
    ok &= mismatches == 0
    lines.append(f"assignment oracle: {scenes} scenes, {mismatches} mismatches -> "
                 f"{'ok' if mismatches == 0 else 'FAIL'}")

    instances, nms_bad = check_nms()
    ok &= nms_bad == 0
    lines.append(f"nms oracle: {instances} instances, {nms_bad} mismatches -> "
                 f"{'ok' if nms_bad == 0 else 'FAIL'}")

    codec_err = check_codec()
    codec_ok = codec_err <= 1e-9
    ok &= codec_ok
    lines.append(f"codec round trip: max rel err {codec_err:.2e} -> {'ok' if codec_ok else 'FAIL'}")
    return ok, lines
