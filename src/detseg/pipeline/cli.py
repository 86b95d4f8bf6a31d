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
import logging
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from .. import selftest as selftest_module
from ..assign import assign_targets, summarize_targets
from ..evaluation import (
    DEFAULT_IOU_THRESHOLDS,
    PredictionIdError,
    cityscapes_adjusted_levels,
    collect_instance_stats,
    evaluate_detections,
    kitti_levels,
    seg_confusion,
    seg_metrics,
)
from ..geom import anchor_preset, make_anchor_grid, preset_names
from ..losses import SEG_IGNORE, TASK_NAMES, LrSchedule
from ..net.checkpoint import load_checkpoint, save_checkpoint, write_atomic
from ..net.model import DOWNSAMPLE, DetSegModel
from ..net.train import TrainSample, train_toy
from ..post import decode_detections, detections_from_jsonl, detections_to_jsonl, nms
from .annotations import boxes_from_polygons, load_annotation, save_annotation
from .classtable import ClassTable, synthetic_table
from .config import RunConfig, load_class_table, load_run_config, load_templates, run_config_from_dict
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
            return load_templates(args.templates_file)
        except OSError as exc:
            raise CliError(f"cannot read templates: {exc}") from exc
    return anchor_preset(args.preset)


def _load_class_table(path: Optional[str]) -> ClassTable:
    if path is None:
        return synthetic_table()
    try:
        return load_class_table(path)
    except OSError as exc:
        raise CliError(f"cannot read class table: {exc}") from exc


def _unit_interval(text: str) -> float:
    """argparse type: a number in [0, 1], the range the config schema allows for thresholds."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text!r}")
    return value


def _add_anchor_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", default="paper-table1", choices=preset_names())
    parser.add_argument("--templates-file", help="JSON array of {ratio, area} (overrides --preset)")


# -- anchors ------------------------------------------------------------------

def cmd_anchors(args) -> int:
    image_w, image_h = _parse_size(args.image)
    templates = _load_templates(args)
    grid = make_anchor_grid(image_w, image_h, DOWNSAMPLE, templates)
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
    samples = make_dataset(config.seed, config.num_images, config.scene, table)

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
        "count": config.num_images,
        "width": config.scene.width,
        "height": config.scene.height,
        "image_ids": image_ids,
    }
    _write_text_atomic(os.path.join(out, "manifest.json"), json.dumps(manifest, indent=1) + "\n")
    print(json.dumps({"written": config.num_images, "output_dir": out}))
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
    grid = make_anchor_grid(ann.image_width, ann.image_height, DOWNSAMPLE, templates)
    targets = assign_targets(grid, gts, ann.image_width, ann.image_height)

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

def _load_dataset(path: str, table: ClassTable) -> list[TrainSample]:
    ann_dir = os.path.join(path, "annotations")
    img_dir = os.path.join(path, "images")
    label_dir = os.path.join(path, "labels")
    if not os.path.isdir(ann_dir) or not os.path.isdir(img_dir) or not os.path.isdir(label_dir):
        raise CliError(f"dataset dir {path} needs images/, labels/ and annotations/")
    samples = []
    allowed = [*range(table.num_classes), SEG_IGNORE]
    for name in sorted(os.listdir(img_dir)):
        if not name.endswith(".ppm"):
            continue
        image_id = name[:-4]
        image_path = os.path.join(img_dir, name)
        image = read_ppm(image_path)
        _, h, w = image.shape
        if h % DOWNSAMPLE or w % DOWNSAMPLE:
            raise CliError(f"image {image_path}: size {w}x{h} is not a multiple of {DOWNSAMPLE}")
        if samples and image.shape != samples[0].image.shape:
            _, h0, w0 = samples[0].image.shape
            raise CliError(f"image {image_path}: size {w}x{h} differs from the first image's {w0}x{h0}")
        label_path = os.path.join(label_dir, image_id + ".pgm")
        labels = read_pgm(label_path)
        if labels.shape != (h, w):
            raise CliError(f"label map {label_path}: size {labels.shape[1]}x{labels.shape[0]} "
                           f"differs from its image's {w}x{h}")
        unknown = np.setdiff1d(labels, allowed)
        if unknown.size:
            raise CliError(f"label map {label_path}: ids {unknown.tolist()} are neither classes of the "
                           f"{table.num_classes}-class table nor {SEG_IGNORE}")
        ann_path = os.path.join(ann_dir, image_id + ".json")
        ann = load_annotation(ann_path)
        if (ann.image_width, ann.image_height) != (w, h):
            raise CliError(f"annotation {ann_path}: size {ann.image_width}x{ann.image_height} "
                           f"differs from its image's {w}x{h}")
        samples.append(TrainSample(image=image, label_map=labels,
                                   gts=boxes_from_polygons(ann, table)))
    if not samples:
        raise CliError(f"no .ppm images found under {img_dir}")
    return samples


def _build_samples(config: RunConfig, dataset: Optional[str]) -> list[TrainSample]:
    """The ``synth`` directory ``dataset``, else in-memory synthetic scenes, whose class table fits the model."""
    if dataset:
        table_path = os.path.join(dataset, "class_table.json")
        table = _load_class_table(table_path if os.path.exists(table_path) else None)
        name = f"dataset {dataset}"
    else:
        table = synthetic_table()
        name = "in-memory synthetic dataset"
    model = config.model
    if (model.num_classes, model.num_object_classes) != (table.num_classes, table.num_detection_classes):
        raise CliError(f"{name}: its class table has {table.num_classes} classes and "
                       f"{table.num_detection_classes} detection classes, but model.num_classes is "
                       f"{model.num_classes} and model.num_object_classes is {model.num_object_classes}")
    if dataset:
        return _load_dataset(dataset, table)
    scenes = make_dataset(config.seed, config.num_images, config.scene, table)
    return [TrainSample(image=s.image.data, label_map=s.label_map.data, gts=s.gts) for s in scenes]


def cmd_train_toy(args) -> int:
    config = load_run_config(args.config)
    samples = _build_samples(config, args.dataset)
    h, w = samples[0].label_map.shape
    grid = make_anchor_grid(w, h, DOWNSAMPLE, config.templates)
    model = DetSegModel(config.model, seed=config.seed)

    result = train_toy(
        samples, model, grid,
        schedule=LrSchedule(max_iter=config.iterations),
        iterations=config.iterations,
        tasks=config.tasks,
        freeze_stats_after=config.freeze_stats_after,
    )

    out = args.output_dir
    os.makedirs(out, exist_ok=True)
    tensors = dict(model.state_tensors())
    tensors["uncertainty.s"] = result.s
    checkpoint_path = os.path.join(out, "checkpoint.nnad")
    save_checkpoint(checkpoint_path, config.raw, tensors)

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

def cmd_detect(args) -> int:
    try:
        ckpt_config, tensors = load_checkpoint(args.checkpoint)
    except OSError as exc:
        raise CliError(f"cannot read checkpoint: {exc}") from exc
    try:
        config = run_config_from_dict(ckpt_config)
        model = DetSegModel(config.model, seed=0)
        model.load_state(tensors)
    except (KeyError, ValueError) as exc:
        raise CliError(f"checkpoint {args.checkpoint}: {exc.args[0]}") from exc
    score_threshold = config.thresholds["score"] if args.score_threshold is None else args.score_threshold
    nms_iou = config.thresholds["nms_iou"] if args.nms_iou is None else args.nms_iou

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
            grids[(w, h)] = make_anchor_grid(w, h, DOWNSAMPLE, config.templates)
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
    for name in gt_files:
        gt_path = os.path.join(args.gt, name)
        pred_path = os.path.join(args.pred, name)
        if not os.path.exists(pred_path):
            raise CliError(f"missing prediction {pred_path}")
        gt, pred = read_pgm(gt_path), read_pgm(pred_path)
        instances = None
        if args.instances:
            instance_path = os.path.join(args.instances, name)
            if not os.path.exists(instance_path):
                raise CliError(f"missing instance map {instance_path}")
            instances = read_pgm(instance_path)
        try:
            confusion += seg_confusion(pred, gt, n)
            if instances is not None:
                for c, pairs in collect_instance_stats(pred, gt, instances, instanceable).items():
                    stats[c].extend(pairs)
        except PredictionIdError as exc:
            raise CliError(f"label map {pred_path}: {exc}") from exc
        except ValueError as exc:
            raise CliError(f"label map {gt_path}: {exc}") from exc

    metrics = seg_metrics(
        confusion,
        instance_stats=stats if args.instances else None,
        categories=table.category_ids(),
    )
    report = {
        "per_class": {
            name: {
                "iou": metrics.iou.get(c),
                "iiou": metrics.iiou.get(c) if c in metrics.iiou else None,
            }
            for c, name in enumerate(table.names)
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
    except ValueError as exc:
        raise CliError(f"detections {args.detections}: {exc}") from exc

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
    thresholds = {det_id: DEFAULT_IOU_THRESHOLDS.get(name, 0.5) for det_id, name in enumerate(table.detection)}
    curves = evaluate_detections(dets_by_image, gts_by_image, thresholds, levels)

    report = {
        "mode": args.mode,
        "ap": {
            table.detection[c]: {level.name: curves[c][level.name].ap for level in levels}
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
                out = os.path.join(args.pr_curves, f"pr_{table.detection[c]}_{level.name}.csv")
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
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("assign", help="assign anchor targets for one annotation")
    p.add_argument("--annotation", required=True)
    p.add_argument("--class-table")
    _add_anchor_args(p)
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


class _LevelPrefix(logging.Formatter):
    def format(self, record: logging.LogRecord) -> str:
        return f"{record.levelname.lower()}: {record.getMessage()}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    # Log records of the package reach this call's stderr as "warning: ..."
    # lines. The handler lives only as long as the call, so in-process
    # callers neither collect handlers nor write to a stale stream.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_LevelPrefix())
    package_log = logging.getLogger("detseg")
    package_log.addHandler(handler)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        package_log.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
