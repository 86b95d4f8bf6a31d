"""Command-line interface wiring all modules into runnable steps.

Subcommands: ``anchors``, ``synth``, ``assign``, ``train-toy``, ``detect``,
``eval-seg``, ``eval-det``, ``selftest``. Every command exits 0 on success
and nonzero with a single ``error: ...`` line on stderr otherwise; output
files are written atomically so failures leave no partial files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Optional, Sequence

import numpy as np

from .. import selftest as selftest_module
from ..assign import AssignConfig, assign_targets, summarize_targets
from ..evaluation import (
    DEFAULT_IOU_THRESHOLDS,
    cityscapes_adjusted_levels,
    collect_instance_stats,
    evaluate_detections,
    kitti_levels,
    seg_confusion,
    seg_metrics,
)
from ..geom import (
    anchor_preset,
    make_anchor_grid,
    preset_names,
    templates_from_json,
    templates_to_json,
)
from ..losses import TASK_NAMES
from ..net.checkpoint import load_checkpoint, save_checkpoint, write_atomic
from ..net.model import DOWNSAMPLE, DetSegModel, ModelConfig
from ..net.train import TrainSample, train_toy
from ..post import decode_detections, detections_from_jsonl, detections_to_jsonl, nms
from .annotations import boxes_from_polygons, load_annotation, save_annotation
from .classtable import ClassTable, synthetic_table
from .config import RunConfig, load_run_config
from .netpbm import read_pgm, read_ppm, write_pgm, write_ppm
from .synth import make_dataset

__all__ = ["main"]


class CliError(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # single-line, machine-parsable
        raise CliError(f"{self.prog}: {message}", code=2)


def _write_text_atomic(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    write_atomic(path, text.encode("utf-8"))


def _parse_size(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise CliError(f"expected WIDTHxHEIGHT, got {text!r}") from None


def _load_templates(args) -> tuple:
    if args.templates_file:
        try:
            with open(args.templates_file, "r", encoding="utf-8") as fh:
                return templates_from_json(fh.read())
        except OSError as exc:
            raise CliError(f"cannot read templates: {exc}") from exc
    return anchor_preset(args.preset)


def _load_class_table(path: Optional[str]) -> ClassTable:
    if path is None:
        return synthetic_table()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return ClassTable.from_json(json.load(fh))
    except OSError as exc:
        raise CliError(f"cannot read class table: {exc}") from exc
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise CliError(f"malformed class table {path}: {exc}") from exc


def _in_unit_interval(value) -> float:
    """``value`` as a float if it is a number in [0, 1], the range the config schema allows."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) and 0.0 <= value <= 1.0:
        return float(value)
    raise ValueError(f"expected a number in [0, 1], got {value!r}")


def _unit_interval(text: str) -> float:
    """argparse type for a threshold in [0, 1]."""
    try:
        return _in_unit_interval(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text!r}") from None


def _add_anchor_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--stride", type=int, default=8)
    parser.add_argument("--preset", default="paper-table1", choices=preset_names())
    parser.add_argument("--templates-file", help="JSON array of {ratio, area} (overrides --preset)")


# -- anchors ------------------------------------------------------------------

def cmd_anchors(args) -> int:
    image_w, image_h = _parse_size(args.image)
    templates = _load_templates(args)
    grid = make_anchor_grid(image_w, image_h, args.stride, templates)
    summary = {
        "image": {"width": image_w, "height": image_h},
        "stride": grid.stride,
        "rows": grid.rows,
        "cols": grid.cols,
        "templates_per_cell": len(grid.templates),
        "anchors": len(grid),
        "outside_image": int(grid.outside.sum()),
    }
    print(json.dumps(summary, indent=1))
    if args.dump:
        lines = []
        for i in range(len(grid)):
            x0, y0, x1, y1 = grid.boxes[i]
            lines.append(json.dumps({
                "index": i, "x_min": x0, "y_min": y0, "x_max": x1, "y_max": y1,
                "outside": bool(grid.outside[i]),
            }))
        _write_text_atomic(args.dump, "\n".join(lines) + "\n")
    return 0


# -- synth --------------------------------------------------------------------

def cmd_synth(args) -> int:
    config = load_run_config(args.config)
    table = synthetic_table()
    count = args.count if args.count is not None else config.num_images
    samples = make_dataset(config.seed, count, config.scene, table)

    out = args.output_dir
    for sub in ("images", "labels", "instances", "annotations"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    image_ids = []
    for i, sample in enumerate(samples):
        image_id = f"{i:03d}"
        image_ids.append(image_id)
        write_ppm(os.path.join(out, "images", image_id + ".ppm"), sample.image.data)
        write_pgm(os.path.join(out, "labels", image_id + ".pgm"), sample.label_map.data)
        write_pgm(os.path.join(out, "instances", image_id + ".pgm"), sample.instance_map)
        save_annotation(os.path.join(out, "annotations", image_id + ".json"), sample.annotation)
    _write_text_atomic(os.path.join(out, "class_table.json"),
                       json.dumps(table.to_json(), indent=1) + "\n")
    manifest = {
        "seed": config.seed,
        "count": count,
        "width": config.scene.width,
        "height": config.scene.height,
        "image_ids": image_ids,
    }
    _write_text_atomic(os.path.join(out, "manifest.json"), json.dumps(manifest, indent=1) + "\n")
    print(json.dumps({"written": count, "output_dir": out}))
    return 0


# -- assign -------------------------------------------------------------------

def cmd_assign(args) -> int:
    table = _load_class_table(args.class_table)
    try:
        ann = load_annotation(args.annotation)
    except OSError as exc:
        raise CliError(f"cannot read annotation: {exc}") from exc
    gts = boxes_from_polygons(ann, table)
    templates = _load_templates(args)
    grid = make_anchor_grid(ann.image_width, ann.image_height, args.stride, templates)
    cfg = AssignConfig(active_iou=args.active_iou, dontcare_iou=args.dontcare_iou,
                       ambiguity_gap=args.ambiguity_gap)
    targets = assign_targets(grid, gts, ann.image_width, ann.image_height, cfg)

    lines = []
    rows = zip(targets.states(), targets.class_targets.tolist(), targets.deltas.tolist(),
               targets.instance_ids.tolist())
    for i, (state, class_id, delta, instance_id) in enumerate(rows):
        record: dict = {"anchor_index": i, "state": state}
        if state == "active":
            record["class_id"] = class_id
            record["delta"] = dict(zip(("tx", "ty", "tw", "th"), delta))
            record["instance_id"] = instance_id
        lines.append(json.dumps(record))
    _write_text_atomic(args.output, "\n".join(lines) + "\n")

    summary = summarize_targets(targets)
    print(json.dumps({
        "anchors": summary.total,
        "inactive": summary.inactive,
        "dontcare": summary.dontcare,
        "active": summary.active,
        "active_per_class": {str(k): v for k, v in sorted(summary.active_per_class.items())},
        "objects": len(gts),
    }, indent=1))
    return 0


# -- train-toy ----------------------------------------------------------------

def _load_dataset_dir(path: str) -> tuple[list[TrainSample], ClassTable]:
    table_path = os.path.join(path, "class_table.json")
    table = _load_class_table(table_path if os.path.exists(table_path) else None)
    ann_dir = os.path.join(path, "annotations")
    img_dir = os.path.join(path, "images")
    label_dir = os.path.join(path, "labels")
    if not os.path.isdir(ann_dir) or not os.path.isdir(img_dir) or not os.path.isdir(label_dir):
        raise CliError(f"dataset dir {path} needs images/, labels/ and annotations/")
    samples = []
    for name in sorted(os.listdir(img_dir)):
        if not name.endswith(".ppm"):
            continue
        image_id = name[:-4]
        image = read_ppm(os.path.join(img_dir, name))
        labels = read_pgm(os.path.join(label_dir, image_id + ".pgm"))
        ann = load_annotation(os.path.join(ann_dir, image_id + ".json"))
        samples.append(TrainSample(image=image, label_map=labels,
                                   gts=boxes_from_polygons(ann, table)))
    if not samples:
        raise CliError(f"no .ppm images found under {img_dir}")
    return samples, table


def _build_samples(config: RunConfig, dataset_dir: Optional[str]) -> list[TrainSample]:
    directory = dataset_dir or config.dataset_dir
    if directory:
        samples, _ = _load_dataset_dir(directory)
        return samples
    scenes = make_dataset(config.seed, config.num_images, config.scene, synthetic_table())
    return [TrainSample(image=s.image.data, label_map=s.label_map.data, gts=s.gts) for s in scenes]


def _checkpoint_config(config: RunConfig) -> dict:
    return {
        "model": config.model.to_dict(),
        "templates": templates_to_json(config.templates),
        "stride": config.stride,
        "thresholds": {"score": config.score_threshold, "nms_iou": config.nms_iou},
        "seed": config.seed,
        "run_config": config.raw,
    }


def cmd_train_toy(args) -> int:
    config = load_run_config(args.config)
    samples = _build_samples(config, args.dataset)
    h, w = samples[0].label_map.shape
    grid = make_anchor_grid(w, h, config.stride, config.templates)
    model = DetSegModel(config.model, seed=config.seed)

    result = train_toy(
        samples, model, grid,
        schedule=config.schedule,
        iterations=config.iterations,
        assign_cfg=config.assign,
        tasks=config.tasks,
        margin=config.margin,
        freeze_stats_after=config.freeze_stats_after,
    )

    out = args.output_dir
    os.makedirs(out, exist_ok=True)
    tensors = dict(model.state_tensors())
    tensors["uncertainty.s"] = result.s
    checkpoint_path = os.path.join(out, "checkpoint.nnad")
    save_checkpoint(checkpoint_path, _checkpoint_config(config), tensors)

    history_path = os.path.join(out, "loss_history.csv")
    buf = io.StringIO()
    writer = csv.writer(buf)
    columns = ["iteration", "lr", "total", *TASK_NAMES]
    writer.writerow(columns)
    for entry in result.history:
        writer.writerow(["" if entry.get(c) is None else entry.get(c) for c in columns])
    _write_text_atomic(history_path, buf.getvalue())

    print(json.dumps({
        "iterations_run": result.iterations_run,
        "final_total": result.history[-1]["total"],
        "checkpoint": checkpoint_path,
        "loss_history": history_path,
    }, indent=1))
    return 0


# -- detect -------------------------------------------------------------------

def _checkpoint_entry(config, key: str, parse):
    """``parse(config[key])``; a missing key, or a value ``parse`` rejects, is a ValueError naming the key."""
    if not isinstance(config, dict) or key not in config:
        raise ValueError(f"config has no {key!r}")
    try:
        return parse(config[key])
    except KeyError as exc:
        raise ValueError(f"config {key!r} has no {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config {key!r}: {exc}") from exc


def _thresholds_from_json(thresholds) -> dict[str, float]:
    """A checkpoint's ``thresholds``: ``score`` and ``nms_iou``, each optional and in [0, 1]."""
    if not isinstance(thresholds, dict):
        raise ValueError(f"expected an object, got {thresholds!r}")
    unknown = sorted(set(thresholds) - {"score", "nms_iou"})
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")
    parsed = {}
    for key, value in thresholds.items():
        try:
            parsed[key] = _in_unit_interval(value)
        except ValueError as exc:
            raise ValueError(f"{key!r}: {exc}") from None
    return parsed


def cmd_detect(args) -> int:
    try:
        ckpt_config, tensors = load_checkpoint(args.checkpoint)
    except OSError as exc:
        raise CliError(f"cannot read checkpoint: {exc}") from exc
    try:
        model_config = _checkpoint_entry(ckpt_config, "model", ModelConfig.from_dict)
        templates = _checkpoint_entry(ckpt_config, "templates", templates_from_json)
        stride = _checkpoint_entry(ckpt_config, "stride", int)
        thresholds = (_checkpoint_entry(ckpt_config, "thresholds", _thresholds_from_json)
                      if "thresholds" in ckpt_config else {})
        model = DetSegModel(model_config, seed=0)
        model.load_state(tensors)
    except (KeyError, ValueError) as exc:
        raise CliError(f"checkpoint {args.checkpoint}: {exc.args[0]}") from exc
    if len(templates) != model_config.anchors_per_cell:
        raise CliError(f"checkpoint {args.checkpoint}: {len(templates)} anchor templates, but its "
                       f"model predicts {model_config.anchors_per_cell} anchors per cell")
    if stride != DOWNSAMPLE:
        raise CliError(f"checkpoint {args.checkpoint}: anchor stride {stride}, but the model "
                       f"downsamples by {DOWNSAMPLE}")
    score_threshold = args.score_threshold
    if score_threshold is None:
        score_threshold = thresholds.get("score", 0.5)
    nms_iou = args.nms_iou
    if nms_iou is None:
        nms_iou = thresholds.get("nms_iou", 0.5)

    if os.path.isdir(args.images):
        files = sorted(
            os.path.join(args.images, f) for f in os.listdir(args.images) if f.endswith(".ppm")
        )
    else:
        files = [args.images]
    if not files:
        raise CliError(f"no .ppm images found under {args.images}")

    if args.seg_output:
        os.makedirs(args.seg_output, exist_ok=True)
    grids = {}
    records = []
    for path in files:
        image = read_ppm(path)
        image_id = os.path.splitext(os.path.basename(path))[0]
        _, h, w = image.shape
        if (w, h) not in grids:
            grids[(w, h)] = make_anchor_grid(w, h, stride, templates)
        grid = grids[(w, h)]
        try:
            # the finiteness checks below report an overflowing head; numpy's warning would repeat it
            with np.errstate(over="ignore", invalid="ignore"):
                outputs = model.forward(image[None], training=False)
            per_image = {name: tensor.data[0] for name, tensor in outputs.items()}
            if not np.isfinite(per_image["seg_logits"]).all():
                raise ValueError("seg_logits has non-finite values")
            records.append((image_id, nms(decode_detections(per_image, grid, score_threshold), nms_iou)))
        except ValueError as exc:
            raise CliError(f"image {path}: {exc}") from exc
        if args.seg_output:
            predicted = per_image["seg_logits"].argmax(axis=0).astype(np.uint8)
            write_pgm(os.path.join(args.seg_output, image_id + ".pgm"), predicted)

    _write_text_atomic(args.output, detections_to_jsonl(records))
    count = sum(len(dets) for _, dets in records)
    print(json.dumps({"images": len(files), "detections": count, "output": args.output}))
    return 0


# -- eval-seg -----------------------------------------------------------------

def cmd_eval_seg(args) -> int:
    table = _load_class_table(args.class_table)
    gt_files = sorted(f for f in os.listdir(args.gt) if f.endswith(".pgm"))
    if not gt_files:
        raise CliError(f"no .pgm label maps under {args.gt}")

    n = table.num_classes
    confusion = np.zeros((n, n), dtype=np.int64)
    instanceable = table.instanceable_ids()
    stats: dict[int, list[tuple[int, int]]] = {c: [] for c in instanceable}
    have_instances = False
    for name in gt_files:
        gt = read_pgm(os.path.join(args.gt, name))
        pred_path = os.path.join(args.pred, name)
        if not os.path.exists(pred_path):
            raise CliError(f"missing prediction for {name}")
        pred = read_pgm(pred_path)
        confusion += seg_confusion(pred, gt, n)
        if args.instances:
            instance_path = os.path.join(args.instances, name)
            if not os.path.exists(instance_path):
                raise CliError(f"missing instance map for {name}")
            have_instances = True
            per_image = collect_instance_stats(pred, gt, read_pgm(instance_path), instanceable)
            for c, pairs in per_image.items():
                stats[c].extend(pairs)

    metrics = seg_metrics(
        confusion,
        instance_stats=stats if have_instances else None,
        categories=table.category_ids(),
    )
    report = {
        "per_class": {
            table.name_of(c): {
                "iou": metrics.iou.get(c),
                "iiou": metrics.iiou.get(c) if c in metrics.iiou else None,
            }
            for c in range(n)
        },
        "mean_iou": metrics.mean_iou,
        "mean_iiou": metrics.mean_iiou,
        "categories": {
            name: {"iou": metrics.category_iou.get(name), "iiou": metrics.category_iiou.get(name)}
            for name in (metrics.category_iou or {})
        },
        "images": len(gt_files),
    }
    text = json.dumps(report, indent=1) + "\n"
    _write_text_atomic(args.output, text)
    print(text, end="")
    return 0


# -- eval-det -----------------------------------------------------------------

def cmd_eval_det(args) -> int:
    table = _load_class_table(args.class_table)
    try:
        with open(args.detections, "r", encoding="utf-8") as fh:
            dets_by_image = detections_from_jsonl(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read detections: {exc}") from exc

    ann_files = sorted(f for f in os.listdir(args.annotations) if f.endswith(".json"))
    if not ann_files:
        raise CliError(f"no annotation files under {args.annotations}")
    gts_by_image = {}
    for name in ann_files:
        ann = load_annotation(os.path.join(args.annotations, name))
        gts_by_image[os.path.splitext(name)[0]] = boxes_from_polygons(ann, table)

    unknown = set(dets_by_image) - set(gts_by_image)
    if unknown:
        raise CliError(f"detections reference unknown image ids: {sorted(unknown)[:5]}")

    max_class = max((int(dets.class_ids.max()) for dets in dets_by_image.values() if len(dets)),
                    default=-1)
    if max_class >= table.num_detection_classes:
        raise CliError(f"detection class id {max_class} exceeds the class table "
                       f"({table.num_detection_classes} detection classes)")

    levels = kitti_levels() if args.mode == "kitti" else cityscapes_adjusted_levels()
    thresholds = {
        det_id: DEFAULT_IOU_THRESHOLDS.get(table.detection_name(det_id), 0.5)
        for det_id in range(table.num_detection_classes)
    }
    curves = evaluate_detections(dets_by_image, gts_by_image, thresholds, levels)

    report = {
        "mode": args.mode,
        "ap": {
            table.detection_name(c): {level.name: curves[c][level.name].ap for level in levels}
            for c in sorted(curves)
        },
    }
    text = json.dumps(report, indent=1) + "\n"
    _write_text_atomic(args.output, text)
    print(text, end="")
    if args.pr_curves:
        for c in sorted(curves):
            for level in levels:
                curve = curves[c][level.name]
                buf = io.StringIO()
                writer = csv.writer(buf)
                writer.writerow(["recall", "precision"])
                writer.writerows(curve.points)
                out = os.path.join(args.pr_curves,
                                   f"pr_{table.detection_name(c)}_{level.name}.csv")
                _write_text_atomic(out, buf.getvalue())
    return 0


# -- selftest -----------------------------------------------------------------

def cmd_selftest(args) -> int:
    ok, lines = selftest_module.run_selftest()
    for line in lines:
        print(line)
    if not ok:
        raise CliError("selftest failed")
    print("selftest: all suites passed")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="detseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("anchors", help="report anchor lattice statistics")
    p.add_argument("--image", required=True, help="image size as WIDTHxHEIGHT")
    _add_anchor_args(p)
    p.add_argument("--dump", help="write every anchor box as JSON lines")
    p.set_defaults(func=cmd_anchors)

    p = sub.add_parser("synth", help="write a synthetic dataset to disk")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--count", type=int, help="override dataset.num_images")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("assign", help="assign anchor targets for one annotation")
    p.add_argument("--annotation", required=True)
    p.add_argument("--class-table")
    _add_anchor_args(p)
    p.add_argument("--active-iou", type=float, default=0.5)
    p.add_argument("--dontcare-iou", type=float, default=0.4)
    p.add_argument("--ambiguity-gap", type=float, default=0.2)
    p.add_argument("--output", required=True, help="targets JSONL path")
    p.set_defaults(func=cmd_assign)

    p = sub.add_parser("train-toy", help="train on a toy dataset and write a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--dataset", help="dataset dir from `synth` (defaults to in-memory scenes)")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("detect", help="run a checkpoint over images")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--images", required=True, help=".ppm file or directory")
    p.add_argument("--output", required=True, help="detections JSONL path")
    p.add_argument("--seg-output", help="directory for predicted label maps (.pgm)")
    p.add_argument("--score-threshold", type=_unit_interval)
    p.add_argument("--nms-iou", type=_unit_interval)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval-seg", help="segmentation IoU/iIoU from label maps")
    p.add_argument("--pred", required=True, help="directory of predicted .pgm maps")
    p.add_argument("--gt", required=True, help="directory of ground-truth .pgm maps")
    p.add_argument("--instances", help="directory of gt instance-id .pgm maps (enables iIoU)")
    p.add_argument("--class-table")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_eval_seg)

    p = sub.add_parser("eval-det", help="detection AP from detections + annotations")
    p.add_argument("--detections", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--mode", choices=("kitti", "cityscapes-adjusted"),
                   default="cityscapes-adjusted")
    p.add_argument("--class-table")
    p.add_argument("--output", required=True)
    p.add_argument("--pr-curves", help="directory for per-class/level PR CSV files")
    p.set_defaults(func=cmd_eval_det)

    p = sub.add_parser("selftest", help="run the gradient and oracle suites")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
