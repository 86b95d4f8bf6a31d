"""Built-in verification suites backing the ``selftest`` CLI command.

Each suite checks an implementation against an independent route from
:mod:`detseg.oracles`: layers, losses and the training objective against
central finite differences, target assignment against a literal per-anchor
re-application of the rule list and its live-anchor search against the
whole lattice, NMS against a quadratic reference, and, bit for bit, both
depthwise paths (gathered columns and the dilated tap view) against direct
loops, and the residue-plane sums of the transposed convolution (whole and
in blocks of one output channel) and of a convolution's input gradient
against a direct loop and a plain scatter. The box codec is checked
against its round-trip identity, and the inference forward against a
training forward with frozen batch-norm statistics. The acceptance tests
run the same suites at full size.
"""

from __future__ import annotations

import contextlib
import itertools

import numpy as np

from .assign import _live_anchors, assign_targets
from .geom import decode_array, encode_array
from .losses import MARGIN, SEG_IGNORE, TASK_NAMES, contrastive_loss, cross_entropy, focal_loss, smooth_l1
from .net import layers
from .net.layers import (
    _ConvGeometry,
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    DepthwiseSeparableConv2d,
    MaxPool2x2,
    ReLU,
    ResidualBlock,
    TransposedConv2d,
)
from .net.model import DetSegModel, ModelConfig, flatten_per_anchor
from .net.train import objective
from .oracles import (
    FD_TOLERANCE,
    anchor_aligned_scene,
    assign_oracle_rows,
    col2im_reference,
    dense_live,
    dense_nms_instance,
    depthwise_input_grad_oracle,
    depthwise_oracle,
    detection_rows,
    finite_difference,
    nms_oracle,
    paper_scene,
    random_assignment_scene,
    relative_error,
    sparse_nms_instance,
    target_rows,
    transposed_conv_oracle,
)
from .post import nms

__all__ = ["run_selftest", "check_layer_gradients", "check_loss_gradients", "check_assignment",
           "check_live_anchors", "check_nms", "check_depthwise", "check_transposed_conv", "check_codec",
           "check_inference_path"]


# A central difference costs two evaluations per entry; this caps the cost of
# the objective case, whose segmentation head has an entry per pixel and class.
FD_PROBES = 256


def _fd_results(cases, instances: int) -> list[tuple[str, float, bool]]:
    """Worst relative error of analytic gradients against central differences, per case.

    Each case is ``(name, draw)``; ``draw()`` returns a fresh instance as
    ``(value_fn, arrays, analytic gradients of value_fn in those arrays)``.
    Every entry of an array is probed, up to ``FD_PROBES`` evenly spaced ones.
    """
    results = []
    for name, draw in cases:
        worst = 0.0
        for _ in range(instances):
            value_fn, arrays, grads = draw()
            for arr, grad in zip(arrays, grads):
                probe = np.unique(np.linspace(0, arr.size - 1, min(arr.size, FD_PROBES)).astype(np.int64))
                fd = finite_difference(value_fn, arr, indices=probe)
                worst = max(worst, relative_error(grad.reshape(-1)[probe], fd))
        results.append((name, worst, worst <= FD_TOLERANCE))
    return results


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
        ("conv1x1", lambda: Conv2d(3, 4, 1, rng=rng), (2, 3, 5, 3)),
        ("depthwise_conv", lambda: DepthwiseConv2d(3, 3, rng=rng), (1, 3, 5, 5)),
        ("depthwise_dilated", lambda: DepthwiseConv2d(3, 3, dilation=2, rng=rng), (1, 3, 7, 5)),
        ("depthwise_separable_conv", lambda: DepthwiseSeparableConv2d(2, 3, 3, rng=rng), (1, 2, 5, 5)),
        ("transposed_conv", lambda: TransposedConv2d(2, 3, 3, stride=2, rng=rng), (1, 2, 3, 3)),
        ("maxpool", MaxPool2x2, (2, 2, 4, 4)),
        ("relu", ReLU, (2, 3, 4, 4)),
        ("batchnorm", lambda: BatchNorm2d(3), (2, 3, 4, 4)),
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

    def case(name, make, shape):
        def draw():
            layer, x = _safe_instance(name, make, shape, rng)
            weight = rng.standard_normal(layer.forward(x, training=True).shape)

            def value():
                return float((layer.forward(x, training=True) * weight).sum())

            layer.forward(x, training=True)
            params = [p for _, p in layer.named_params()]
            for p in params:
                p.grad[...] = 0.0
            dx = layer.backward(weight.copy())
            return value, [x] + [p.data for p in params], [dx] + [p.grad for p in params]
        return name, draw

    return _fd_results([case(*spec) for spec in _layer_cases(rng)], instances)


def check_loss_gradients(instances: int = 3, seed: int = 0) -> list[tuple[str, float, bool]]:
    """Finite-difference check of every loss gradient, and of :func:`objective` in its head outputs and ``s``."""
    rng = np.random.default_rng(seed)

    def focal_case():
        logits = rng.standard_normal((8, 2))
        targets = rng.integers(0, 2, size=8)
        _, grad = focal_loss(logits, targets)
        return (lambda: focal_loss(logits, targets)[0]), [logits], [grad]

    def ce_case():
        logits = rng.standard_normal((7, 4))
        targets = rng.integers(0, 4, size=7)
        _, grad = cross_entropy(logits, targets)
        return (lambda: cross_entropy(logits, targets)[0]), [logits], [grad]

    def sl1_case():
        pred = rng.standard_normal((6, 4)) * 1.5
        target = rng.standard_normal((6, 4)) * 1.5
        # keep |pred - target| away from the huber kink at 1
        gap = np.abs(pred - target) - 1.0
        pred[np.abs(gap) < 1e-3] += 0.01
        _, grad = smooth_l1(pred, target)
        return (lambda: smooth_l1(pred, target)[0]), [pred], [grad]

    def contrastive_case():
        for _ in range(50):
            emb = rng.standard_normal((5, 3))
            ids = rng.integers(0, 3, size=5)
            diff = emb[:, None, :] - emb[None, :, :]
            d = np.sqrt(np.einsum("ije,ije->ij", diff, diff))
            off = d[~np.eye(5, dtype=bool)]
            # stay clear of the hinge kink at d == MARGIN and the d == 0 cusp
            if off.min() > 1e-3 and np.abs(off - MARGIN).min() > 1e-3:
                break
        _, grad = contrastive_loss(emb, ids)
        return (lambda: contrastive_loss(emb, ids)[0]), [emb], [grad]

    def objective_case():
        # Random heads on an anchor-aligned scene where every task applies;
        # redrawn until the box residuals and embedding distances of the
        # active anchors clear their kinks.
        while True:
            grid, gts, w, h = anchor_aligned_scene(rng)
            targets = assign_targets(grid, gts, w, h)
            if len(np.unique(targets.active_instances)) >= 2:
                break
        t, rows, cols = len(grid.templates), grid.rows, grid.cols
        label_map = rng.integers(0, 3, size=(h, w))
        label_map[rng.random((h, w)) < 0.2] = SEG_IGNORE
        label_map[0, 0] = 0
        for _ in range(50):
            outputs = {"objectness": rng.standard_normal((2 * t, rows, cols)),
                       "class_scores": rng.standard_normal((3 * t, rows, cols)),
                       "box_deltas": rng.standard_normal((4 * t, rows, cols)),
                       "embeddings": rng.standard_normal((2 * t, rows, cols)),
                       "seg_logits": rng.standard_normal((3, h, w))}
            box = flatten_per_anchor(outputs["box_deltas"], t)[targets.active_index] - targets.active_deltas
            emb = flatten_per_anchor(outputs["embeddings"], t)[targets.active_index]
            d = np.sqrt(((emb[:, None] - emb[None]) ** 2).sum(-1))[np.triu_indices(len(emb), k=1)]
            if min(np.abs(np.abs(box) - 1.0).min(), d.min(), np.abs(d - MARGIN).min()) > _KINK_MARGIN:
                break
        else:
            raise RuntimeError("could not draw a kink-free instance for objective")
        s = rng.uniform(-0.5, 0.5, size=len(TASK_NAMES))
        _, _, upstream, ds = objective(outputs, targets, label_map, s)
        arrays = list(outputs.values()) + [s]
        grads = [upstream[head] for head in outputs] + [ds]
        return (lambda: objective(outputs, targets, label_map, s)[0]), arrays, grads

    return _fd_results([("focal_loss", focal_case), ("cross_entropy", ce_case),
                        ("smooth_l1", sl1_case), ("contrastive_loss", contrastive_case),
                        ("objective", objective_case)], instances)


def _assignment_scenes(scenes: int, seed: int):
    """Alternately random and anchor-aligned scenes, as ``(grid, gts, width, height)``."""
    rng = np.random.default_rng(seed)
    for k in range(scenes):
        yield (anchor_aligned_scene if k % 2 else random_assignment_scene)(rng)


def check_assignment(scenes: int = 100, seed: int = 0) -> tuple[int, int, int]:
    """Alternately random and anchor-aligned scenes: every anchor's state, ids and delta must equal the oracle's.

    Returns ``(scenes, mismatching scenes, scenes with an active anchor)``.
    """
    mismatches = with_active = 0
    for grid, gts, w, h in _assignment_scenes(scenes, seed):
        expected = assign_oracle_rows(grid, gts, w, h)
        mismatches += target_rows(assign_targets(grid, gts, w, h)) != expected
        with_active += any(row[0] == "active" for row in expected)
    return scenes, mismatches, with_active


# (seed, objects) of the 512x256 paper-table1 scenes checked after the small ones.
LIVE_PAPER_SCENES = ((1, 4), (2, 8))


def check_live_anchors(scenes: int = 100, seed: int = 0) -> tuple[int, int, int]:
    """The assigner's live-anchor search against :func:`detseg.oracles.dense_live`.

    Runs on :func:`check_assignment`'s scenes for the same ``scenes`` and
    ``seed``, then on the ``LIVE_PAPER_SCENES``. Returns ``(scenes,
    mismatching scenes, live anchors)``.
    """
    paper = (paper_scene(*spec) for spec in LIVE_PAPER_SCENES)
    mismatches = live_total = 0
    for grid, gts, _, _ in itertools.chain(_assignment_scenes(scenes, seed), paper):
        expected = dense_live(grid, gts)
        live, _ = _live_anchors(grid, np.array([g.bbox.as_array() for g in gts]).reshape(-1, 4))
        mismatches += live.tolist() != expected.tolist()
        live_total += expected.size
    return scenes + len(LIVE_PAPER_SCENES), mismatches, live_total


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
            dets = sparse_nms_instance(rng, boxes_per_instance)
        else:
            dets = dense_nms_instance(rng, DENSE_NMS_BOXES)
        mismatches += detection_rows(nms(dets, 0.5)) != detection_rows(nms_oracle(dets, 0.5))
    return instances + DENSE_NMS_INSTANCES, mismatches


@contextlib.contextmanager
def _column_budget(values: int):
    """Run the body with ``layers.COL_BLOCK`` set to ``values``."""
    saved = layers.COL_BLOCK
    layers.COL_BLOCK = values
    try:
        yield
    finally:
        layers.COL_BLOCK = saved


def check_depthwise(seed: int = 0) -> tuple[int, int]:
    """Both depthwise paths against the direct loops, bit for bit.

    For dilations 1-3 and kernels 1, 3 and 5 (dilation 1 or a 1x1 kernel
    gathers columns; a wider kernel at a wider dilation reads its taps
    through a view of the padded input): ``DepthwiseConv2d.forward``, eval
    and training, against :func:`~detseg.oracles.depthwise_oracle`, and
    ``backward``'s input gradient, for a ``dy`` on a half-unit grid with
    zeros of both signs, against
    :func:`~detseg.oracles.depthwise_input_grad_oracle`. Returns ``(cases,
    mismatching cases)``.
    """
    rng = np.random.default_rng(seed)
    cases = mismatches = 0
    for dilation, kernel in itertools.product((1, 2, 3), (1, 3, 5)):
        layer = DepthwiseConv2d(2, kernel, dilation=dilation, rng=rng)
        x = rng.standard_normal((2, 2, 4, 7))
        expected = depthwise_oracle(x, layer.weight.data, dilation).tobytes()
        for training in (False, True):
            mismatches += layer.forward(x, training).tobytes() != expected
        dy = np.round(2.0 * rng.standard_normal(x.shape)) / 2.0
        dy[:, 0, 0, 0] = -0.0
        expected = depthwise_input_grad_oracle(dy, layer.weight.data, dilation).tobytes()
        mismatches += layer.backward(dy).tobytes() != expected
        cases += 3
    return cases, mismatches


def check_transposed_conv(seed: int = 0) -> tuple[int, int]:
    """The residue-plane sums of ``col2im`` against independent routes, bit for bit.

    For strides 1-3 and kernels 1-4: ``TransposedConv2d.forward``, eval and
    training, and eval again in blocks of one output channel, against
    :func:`~detseg.oracles.transposed_conv_oracle` (one input channel, so
    that every tap is one product, rounded alike by the layer's matmul and
    the loop), and ``Conv2d.backward``'s input gradient against
    :func:`~detseg.oracles.col2im_reference` of the same columns. Returns
    ``(cases, mismatching cases)``.
    """
    rng = np.random.default_rng(seed)
    cases = mismatches = 0
    for stride, kernel in itertools.product((1, 2, 3), (1, 2, 3, 4)):
        up = TransposedConv2d(1, 2, kernel, stride=stride, rng=rng)
        up.bias.data[...] = rng.standard_normal(2)
        x = rng.standard_normal((2, 1, 3, 4))
        expected = transposed_conv_oracle(x, up.weight.data, up.bias.data, stride).tobytes()
        for training in (False, True):
            mismatches += up.forward(x, training).tobytes() != expected
        with _column_budget(1):
            mismatches += up.forward(x).tobytes() != expected
        conv = Conv2d(2, 3, kernel, stride=stride, dilation=2, rng=rng)
        dy = rng.standard_normal(conv.forward(rng.standard_normal((2, 2, 5, 6)), training=True).shape)
        geo = _ConvGeometry(5, 6, kernel, stride, 2)
        dcols = np.matmul(conv.weight.data.reshape(3, -1).T[None], dy.reshape(2, 3, -1))
        mismatches += conv.backward(dy).tobytes() != geo.unpad(col2im_reference(geo, dcols, 2)).tobytes()
        cases += 4
    return cases, mismatches


def check_codec(pairs: int = 2000, seed: int = 0) -> float:
    """Max round-trip error of decode(encode(anchor, gt)) over random pairs."""
    rng = np.random.default_rng(seed)

    def boxes():
        x = rng.uniform(-100, 500, pairs)
        y = rng.uniform(-100, 500, pairs)
        w = rng.uniform(0.5, 400, pairs)
        h = rng.uniform(0.5, 400, pairs)
        return np.stack([x, y, x + w, y + h], axis=1)

    anchors = boxes()
    gts = boxes()
    recovered = decode_array(anchors, encode_array(anchors, gts))
    return float((np.abs(recovered - gts) / np.maximum(np.abs(gts), 1.0)).max())


def check_inference_path(seed: int = 0) -> tuple[bool, list[str]]:
    """Eval forward of a small model against a training forward with frozen BN statistics.

    Unfrozen training forwards first move the running statistics and leave
    every layer's backward cache behind. The eval forward that follows must
    clear those caches and equal, bit for bit on every head, a training
    forward after :meth:`DetSegModel.freeze_batchnorm_stats`. Returns (all
    heads equal, the names of the layers still holding a cache after the
    eval forward).
    """
    config = ModelConfig(num_classes=3, num_object_classes=2, embedding_dim=2, anchors_per_cell=3,
                         stem_channels=4, stage_channels=(4, 6, 8), stage_blocks=(1, 1, 1),
                         seg_head_channels=(6, 5, 4), det_channels=8)
    model = DetSegModel(config, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        model.forward(rng.normal(2.0, 3.0, (2, 3, 16, 16)), training=True)
    x = rng.random((1, 3, 16, 16))
    inferred = model.forward(x, training=False)
    cached = [name.rstrip(".") or "model" for name, layer in model.walk() if layer._cache is not None]
    model.freeze_batchnorm_stats()
    reference = model.forward(x, training=True)
    equal = all(np.array_equal(inferred[k].data, reference[k].data) for k in reference)
    return equal, cached


def run_selftest() -> tuple[bool, list[str]]:
    """Run every suite at reduced size; returns (all passed, report lines)."""
    # (what a suite found, whether it passed), one per report line
    results = [(f"gradients {name}: max rel err {err:.2e}", passed)
               for name, err, passed in check_layer_gradients() + check_loss_gradients()]
    scenes, bad, with_active = check_assignment()
    results.append((f"assignment oracle: {scenes} scenes ({with_active} with active anchors), {bad} mismatches",
                    bad == 0))
    scenes, bad, live = check_live_anchors()
    results.append((f"live anchors: {scenes} scenes ({live} live anchors), {bad} mismatches", bad == 0))
    instances, bad = check_nms()
    results.append((f"nms oracle: {instances} instances, {bad} mismatches", bad == 0))
    cases, bad = check_depthwise()
    results.append((f"depthwise oracle: {cases} cases, {bad} mismatches", bad == 0))
    cases, bad = check_transposed_conv()
    results.append((f"transposed conv oracle: {cases} cases, {bad} mismatches", bad == 0))
    codec_err = check_codec()
    results.append((f"codec round trip: max rel err {codec_err:.2e}", codec_err <= 1e-9))
    heads_equal, cached = check_inference_path()
    heads = "match" if heads_equal else "DIFFER FROM"
    results.append((f"inference path: eval heads {heads} a frozen-BN training forward, "
                    f"{len(cached)} layers keep a cache", heads_equal and not cached))
    lines = [f"{found} -> {'ok' if passed else 'FAIL'}" for found, passed in results]
    return all(passed for _, passed in results), lines
