"""Span tracer that times detseg's layers from outside the package.

The tracer replaces public functions and layer methods of the ``detseg``
modules with wrappers that open a named span around the original call, and
puts every original back when it is closed. Nothing under ``src/`` knows
about it.

Time is charged slice by slice: between two span events, the elapsed time
goes to the innermost open span, in the bucket that is current at that
moment. A span's *self* time is therefore its duration minus the time of
its child spans, and the benchmark can switch buckets ("setup", "op",
"idle") in the middle of a long span (for example inside ``train_toy``)
without mixing set-up work into the per-op figures.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

__all__ = ["Tracer", "install_detseg", "LAYER_METRICS", "layer_metrics", "RULES"]

_now = time.perf_counter

LEAF_KINDS = ("conv3x3", "conv1x1", "depthwise", "tconv", "bn", "relu", "maxpool")
MAC_KINDS = ("conv3x3", "conv1x1", "depthwise", "tconv")
BLOCKS = ("backbone", "seg_head", "det_trunk", "det_heads")
MODULES = ("geom", "assign", "losses", "net", "post", "evaluation", "pipeline")
RULES = ("default", "border", "ambiguous", "best", "band", "fallback")  # AssignRule codes 1..6


def _table():
    return defaultdict(lambda: defaultdict(float))


class Tracer:
    """Span stack, per-bucket self/inclusive times, call counts and counters."""

    def __init__(self):
        self.self_s = _table()   # bucket -> span name -> seconds
        self.incl_s = _table()   # bucket -> span name -> seconds, children included
        self.calls = _table()    # bucket -> span name -> completed spans
        self.counts = _table()   # bucket -> counter name -> value
        self._stack: list[tuple[str, float]] = []
        self._open: defaultdict[str, int] = defaultdict(int)  # open spans per name
        self._last = _now()
        self._patches: list[tuple[object, str, object]] = []
        self._select("setup")

    def _select(self, bucket: str) -> None:
        self.bucket = bucket
        self._self, self._incl, self._calls = self.self_s[bucket], self.incl_s[bucket], self.calls[bucket]

    # -- span events ----------------------------------------------------------

    def enter(self, name: str) -> None:
        now = _now()
        if self._stack:
            self._self[self._stack[-1][0]] += now - self._last
        self._stack.append((name, now))
        self._open[name] += 1
        self._last = now

    def exit(self) -> None:
        now = _now()
        name, start = self._stack.pop()
        self._self[name] += now - self._last
        self._open[name] -= 1
        if not self._open[name]:  # count nested same-name spans once
            self._incl[name] += now - start
        self._calls[name] += 1
        self._last = now

    def switch(self, bucket: str) -> None:
        """Charge the open slice to the current bucket, then change bucket."""
        now = _now()
        if self._stack:
            self._self[self._stack[-1][0]] += now - self._last
        self._last = now
        self._select(bucket)

    def count(self, name: str, value: float) -> None:
        self.counts[self.bucket][name] += value

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def wrap_function(self, module, attr: str, span: str, after=None) -> None:
        """Wrap ``module.attr`` and every other ``detseg`` module binding of it."""
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer.enter(span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(tracer, args, result)
            return result

        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "detseg" or name.startswith("detseg.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, traced)

    def wrap_method(self, cls: type, attr: str, span_of, after=None) -> None:
        """Wrap ``cls.attr``; ``span_of(obj, args, kwargs)`` names the span or returns None."""
        original = cls.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(obj, *args, **kwargs):
            span = span_of(obj, args, kwargs)
            if span is None:
                return original(obj, *args, **kwargs)
            tracer.enter(span)
            try:
                result = original(obj, *args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(tracer, obj, args, result)
            return result

        self._patch(cls, attr, traced)

    def restore(self) -> None:
        """Put every wrapped callable back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        install_detseg(self)
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# -- what gets wrapped ----------------------------------------------------------


def _conv_kind(layer) -> str:
    return f"conv{layer.kernel}x{layer.kernel}"


def install_detseg(tracer: Tracer) -> None:
    """Wrap the public functions and layer methods of every detseg module."""
    from detseg import assign, evaluation, geom, losses, post
    from detseg.net import checkpoint, layers, model, optim, train
    from detseg.pipeline import annotations, cli, config, netpbm, synth

    def count_rules(t, args, result):
        codes = np.bincount(result[1], minlength=len(RULES) + 1)
        for code, rule in enumerate(RULES, start=1):
            t.count(f"assign.rule.{rule}", int(codes[code]))
        t.count("assign.anchors", len(result[1]))

    functions = [
        (geom, "make_anchor_grid", "geom.grid", None),
        (geom, "iou_matrix", "geom.iou_matrix", None),
        (geom, "encode", "geom.encode", None),
        (geom, "encode_array", "geom.encode", None),
        (geom, "decode", "geom.decode", None),
        (geom, "decode_array", "geom.decode", None),
        (assign, "assign_targets", "assign.assign", None),
        (assign, "assign_targets_detailed", "assign.assign", count_rules),
        (assign, "summarize_targets", "assign.summarize", None),
        (train, "prepare_targets", "assign.prepare", None),
        (losses, "focal_loss", "losses.focal", None),
        (losses, "cross_entropy", "losses.cross_entropy", None),
        (losses, "smooth_l1", "losses.smooth_l1", None),
        (losses, "contrastive_loss", "losses.contrastive", None),
        (losses, "kendall_total", "losses.kendall", None),
        (train, "train_toy", "net.train", None),
        (optim, "adam_step", "net.optim.adam", None),
        (checkpoint, "save_checkpoint", "net.checkpoint.save", None),
        (checkpoint, "load_checkpoint", "net.checkpoint.load", None),
        (post, "decode_detections", "post.decode",
         lambda t, args, result: t.count("post.candidates", len(result))),
        (post, "nms", "post.nms", lambda t, args, result: t.count("post.kept", len(result))),
        (post, "detections_to_jsonl", "post.jsonl", None),
        (post, "detections_from_jsonl", "post.jsonl", None),
        (evaluation, "evaluate_detections", "evaluation.eval_det", None),
        (evaluation, "match_detections", "evaluation.match", None),
        (evaluation, "seg_confusion", "evaluation.seg_confusion", None),
        (evaluation, "collect_instance_stats", "evaluation.instance_stats", None),
        (evaluation, "seg_metrics", "evaluation.seg_metrics", None),
        (netpbm, "read_ppm", "pipeline.read_ppm", None),
        (netpbm, "read_pgm", "pipeline.read_pgm", None),
        (netpbm, "write_ppm", "pipeline.write_ppm", None),
        (netpbm, "write_pgm", "pipeline.write_pgm", None),
        (annotations, "load_annotation", "pipeline.annotations", None),
        (annotations, "save_annotation", "pipeline.annotations", None),
        (annotations, "boxes_from_polygons", "pipeline.annotations", None),
        (synth, "make_dataset", "pipeline.synth", None),
        (synth, "synth_scene", "pipeline.synth", None),
        (config, "load_run_config", "pipeline.config", None),
        (config, "run_config_from_dict", "pipeline.config", None),
        (cli, "main", "pipeline.cli", None),
    ]
    for module, attr, span, after in functions:
        tracer.wrap_function(module, attr, span, after)

    blocks: "weakref.WeakKeyDictionary[object, str]" = weakref.WeakKeyDictionary()

    def model_forward_span(m, args, kwargs):
        blocks[m.backbone] = "backbone"
        blocks[m.seg_head] = "seg_head"
        blocks[m.det_trunk] = "det_trunk"
        for head in m.det_heads.values():
            blocks[head] = "det_heads"
        training = kwargs.get("training", args[1] if len(args) > 1 else False)
        return "net.forward" if training else "net.infer_forward"

    tracer.wrap_method(model.DetSegModel, "__init__", lambda m, a, k: "net.model_build")
    tracer.wrap_method(model.DetSegModel, "forward", model_forward_span)
    tracer.wrap_method(model.DetSegModel, "backward", lambda m, a, k: "net.backward")
    tracer.wrap_method(model.DetSegModel, "zero_grad", lambda m, a, k: "net.zero_grad")
    tracer.wrap_method(model.DetSegModel, "load_state", lambda m, a, k: "net.checkpoint.load")

    def block_span(direction):
        def span_of(seq, args, kwargs):
            name = blocks.get(seq)
            return None if name is None else f"net.{name}.{direction}"
        return span_of

    tracer.wrap_method(layers.Sequential, "forward", block_span("fwd"))
    tracer.wrap_method(layers.Sequential, "backward", block_span("bwd"))

    # Multiply-accumulates from shapes, per forward; each backward of these
    # layers does exactly twice the forward's (weight gradient + input gradient).
    last_macs: dict[int, int] = {}

    def macs_after(kind_of, macs_of):
        def after(t, layer, args, y):
            macs = macs_of(layer, args[0], y)
            last_macs[id(layer)] = macs
            t.count(f"net.{kind_of(layer)}.fwd_mac", macs)
        return after

    def bwd_macs_after(kind_of):
        def after(t, layer, args, dx):
            t.count(f"net.{kind_of(layer)}.bwd_mac", 2 * last_macs.get(id(layer), 0))
        return after

    leaves = [
        (layers.Conv2d, _conv_kind, lambda l, x, y: y.size * l.in_channels * l.kernel * l.kernel),
        (layers.DepthwiseConv2d, lambda l: "depthwise", lambda l, x, y: y.size * l.kernel * l.kernel),
        (layers.TransposedConv2d, lambda l: "tconv", lambda l, x, y: x.size * l.out_channels * l.kernel * l.kernel),
        (layers.BatchNorm2d, lambda l: "bn", None),
        (layers.ReLU, lambda l: "relu", None),
        (layers.MaxPool2x2, lambda l: "maxpool", None),
    ]
    for cls, kind_of, macs_of in leaves:
        fwd_after = None if macs_of is None else macs_after(kind_of, macs_of)
        bwd_after = None if macs_of is None else bwd_macs_after(kind_of)
        tracer.wrap_method(cls, "forward", lambda l, a, k, kind_of=kind_of: f"net.{kind_of(l)}.fwd", fwd_after)
        tracer.wrap_method(cls, "backward", lambda l, a, k, kind_of=kind_of: f"net.{kind_of(l)}.bwd", bwd_after)


# -- per-layer metrics ----------------------------------------------------------

_MS_SELF = {  # metric -> span names whose self time it sums, per op
    "geom.iou_matrix_ms": ("geom.iou_matrix",),
    "geom.grid_ms": ("geom.grid",),
    "assign.assign_ms": ("assign.assign",),
    "assign.prepare_ms": ("assign.prepare",),
    "assign.summarize_ms": ("assign.summarize",),
    "losses.focal_ms": ("losses.focal",),
    "losses.cross_entropy_ms": ("losses.cross_entropy",),
    "losses.smooth_l1_ms": ("losses.smooth_l1",),
    "losses.contrastive_ms": ("losses.contrastive",),
    "losses.kendall_ms": ("losses.kendall",),
    "net.optim.adam_ms": ("net.optim.adam",),
    "net.zero_grad_ms": ("net.zero_grad",),
    "net.checkpoint.load_ms": ("net.checkpoint.load",),
    "net.model_build_ms": ("net.model_build",),
    "net.train_loop_ms": ("net.train",),
    "post.decode_ms": ("post.decode",),
    "post.nms_ms": ("post.nms",),
    "post.jsonl_ms": ("post.jsonl",),
    "evaluation.eval_det_ms": ("evaluation.eval_det",),
    "evaluation.match_ms": ("evaluation.match",),
    "evaluation.seg_confusion_ms": ("evaluation.seg_confusion",),
    "evaluation.instance_stats_ms": ("evaluation.instance_stats",),
    "evaluation.seg_metrics_ms": ("evaluation.seg_metrics",),
    "pipeline.read_ppm_ms": ("pipeline.read_ppm",),
    "pipeline.read_pgm_ms": ("pipeline.read_pgm",),
    "pipeline.write_pgm_ms": ("pipeline.write_pgm",),
    "pipeline.annotations_ms": ("pipeline.annotations",),
    "pipeline.cli_self_ms": ("pipeline.cli",),
    "net.glue_ms": ("net.forward", "net.infer_forward", "net.backward")
    + tuple(f"net.{b}.{d}" for b in BLOCKS for d in ("fwd", "bwd")),
}
_MS_SELF.update({f"net.{k}.{d}_ms": (f"net.{k}.{d}",) for k in LEAF_KINDS for d in ("fwd", "bwd")})
_MS_INCL = {  # metric -> span whose inclusive time it reports, per op
    "net.forward_ms": "net.forward",
    "net.backward_ms": "net.backward",
    "net.infer_forward_ms": "net.infer_forward",
}
_MS_INCL.update({f"net.{b}.{d}_ms": f"net.{b}.{d}" for b in BLOCKS for d in ("fwd", "bwd")})
_SETUP_MS = {  # metric -> span whose inclusive time it reports, per set-up
    "setup.pipeline.synth_ms": "pipeline.synth",
    "setup.geom.grid_ms": "geom.grid",
    "setup.assign.assign_ms": "assign.assign",
    "setup.net.train_ms": "net.train",
}

_ms = ("ms", "lower")
LAYER_METRICS: dict[str, tuple[str, str]] = {}  # name -> (unit, better)
LAYER_METRICS.update({name: _ms for name in _MS_INCL})
LAYER_METRICS.update({name: _ms for name in _MS_SELF})
LAYER_METRICS.update({f"net.{k}.calls": ("count", "lower") for k in LEAF_KINDS})
LAYER_METRICS.update({f"net.{k}.{d}_mmac": ("MMAC", "lower") for k in MAC_KINDS for d in ("fwd", "bwd")})
LAYER_METRICS.update({
    "net.fwd_gflop": ("GFLOP", "lower"),
    "net.bwd_gflop": ("GFLOP", "lower"),
    "net.achieved_gflops": ("GFLOP/s", "higher"),
    "geom.encode_calls": ("count", "lower"),
})
LAYER_METRICS.update({f"assign.rule.{r}": ("count", "lower") for r in RULES})
LAYER_METRICS.update({
    "assign.active_ratio": ("ratio", "higher"),
    "post.candidates": ("count", "lower"),
    "post.kept": ("count", "lower"),
    "post.keep_ratio": ("ratio", "higher"),
})
LAYER_METRICS.update({f"{m}.self_ms": _ms for m in MODULES})
LAYER_METRICS.update({name: _ms for name in _SETUP_MS})
LAYER_METRICS.update({
    "op.untraced_ms": _ms,
    "op.traced_ms": _ms,
    "op.unaccounted_ms": _ms,
    "trace.overhead_pct": ("%", "lower"),
    "losses.loss_final": ("loss", "lower"),
})


def layer_metrics(tracer: Tracer, ops: int, op_traced_s: float, op_untraced_ms: float) -> dict[str, float]:
    """Per-op figures from the ``op`` bucket, and ``setup.*`` from the one traced set-up.

    ``ops`` traced ops took ``op_traced_s`` seconds in all; ``op_untraced_ms``
    is the mean op time of the untraced half of the run. ``losses.loss_final``
    is left for the caller, which knows the loss.
    """
    ops = max(ops, 1)
    self_s, incl_s, calls, counts = (t["op"] for t in (tracer.self_s, tracer.incl_s, tracer.calls, tracer.counts))
    per_op_ms = 1e3 / ops
    out: dict[str, float] = {}
    for name, spans in _MS_SELF.items():
        out[name] = sum(self_s[s] for s in spans) * per_op_ms
    for name, span in _MS_INCL.items():
        out[name] = incl_s[span] * per_op_ms
    for name, span in _SETUP_MS.items():
        out[name] = tracer.incl_s["setup"][span] * 1e3
    for kind in LEAF_KINDS:
        out[f"net.{kind}.calls"] = calls[f"net.{kind}.fwd"] / ops
    fwd_mac = bwd_mac = 0.0
    for kind in MAC_KINDS:
        fwd_mac += counts[f"net.{kind}.fwd_mac"]
        bwd_mac += counts[f"net.{kind}.bwd_mac"]
        out[f"net.{kind}.fwd_mmac"] = counts[f"net.{kind}.fwd_mac"] / ops / 1e6
        out[f"net.{kind}.bwd_mmac"] = counts[f"net.{kind}.bwd_mac"] / ops / 1e6
    out["net.fwd_gflop"] = 2.0 * fwd_mac / ops / 1e9
    out["net.bwd_gflop"] = 2.0 * bwd_mac / ops / 1e9
    mac_leaf_s = sum(self_s[f"net.{k}.{d}"] for k in MAC_KINDS for d in ("fwd", "bwd"))
    out["net.achieved_gflops"] = 2.0 * (fwd_mac + bwd_mac) / 1e9 / mac_leaf_s if mac_leaf_s else 0.0
    out["geom.encode_calls"] = calls["geom.encode"] / ops
    anchors = counts["assign.anchors"]
    for rule in RULES:
        out[f"assign.rule.{rule}"] = counts[f"assign.rule.{rule}"] / ops
    active = counts["assign.rule.best"] + counts["assign.rule.fallback"]
    out["assign.active_ratio"] = active / anchors if anchors else 0.0
    out["post.candidates"] = counts["post.candidates"] / ops
    out["post.kept"] = counts["post.kept"] / ops
    out["post.keep_ratio"] = (counts["post.kept"] / counts["post.candidates"]
                              if counts["post.candidates"] else 0.0)
    module_ms = {m: 0.0 for m in MODULES}
    for span, seconds in self_s.items():
        module_ms[span.split(".", 1)[0]] += seconds
    for module, seconds in module_ms.items():
        out[f"{module}.self_ms"] = seconds * per_op_ms
    out["op.untraced_ms"] = op_untraced_ms
    out["op.traced_ms"] = op_traced_s * per_op_ms
    out["op.unaccounted_ms"] = out["op.traced_ms"] - sum(module_ms.values()) * per_op_ms
    out["trace.overhead_pct"] = (100.0 * (out["op.traced_ms"] - op_untraced_ms) / op_untraced_ms
                                 if op_untraced_ms else 0.0)
    return out
