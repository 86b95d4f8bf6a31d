"""The benchmark's workloads: inputs made from a seed, one timed op, output checks.

Each workload builds its inputs in ``__init__(seed, workdir, traced)`` (the
set-up the benchmark times as ``setup_s``) and runs ops in ``batch(clock, index)``, which times
them with an :class:`OpClock` and returns ``(attempted, failures)``: a batch
whose checks fail counts every op it timed as failed. ``index`` picks the
input (scene or image) where a workload has several. Calls into detseg go
through module attributes (``geom.make_anchor_grid``, not a name imported
from ``geom``), so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import time

import numpy as np

import detseg
from detseg import assign, geom
from detseg.losses import IGNORE, LrSchedule
from detseg.net import checkpoint, model, train
from detseg.pipeline import cli, netpbm, synth
from tracer import RULES

__all__ = ["OpClock", "REFERENCE_LOOP_S", "WORKLOADS"]

# A round figure for the reference loop's time per repeat on the 2-core
# machine the benchmark was sized on (1.0-1.4 ms as its speed swung); it
# turns "ops per reference loop" back into a rate in 1/s.
REFERENCE_LOOP_S = 1e-3
_REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((32, 32))


def reference_loop(repeats: int) -> float:
    """Seconds this machine takes now for ``repeats`` of a fixed piece of work.

    The work is the mix detseg's ops spend their time in: interpreter
    bytecode and many small numpy calls. It shares no code with detseg, so
    no change to detseg can change it; timed beside the ops, it measures
    the machine's speed at that moment (see README.md, Noise).
    """
    start = time.perf_counter()
    for _ in range(repeats):
        total = 0
        for i in range(5000):
            total += i * i
        m = _REFERENCE_MATRIX
        for _ in range(100):
            m = np.tanh(m @ _REFERENCE_MATRIX * 0.01)
    return time.perf_counter() - start


class OpClock:
    """Records op durations and moves the tracer, if any, between buckets.

    With ``reference_repeats``, every op is preceded and followed, outside
    its timed interval, by that many repeats of :func:`reference_loop`, whose
    times per repeat go to ``reference``: the two samples bracket the op, so
    their mean follows the machine's speed during it.
    """

    def __init__(self, tracer=None, reference_repeats: int = 0):
        self.tracer = tracer
        self.reference_repeats = reference_repeats
        self.durations: list[float] = []
        self.reference: list[float] = []
        self._start = 0.0

    def start(self) -> None:
        self._sample_reference()
        if self.tracer is not None:
            self.tracer.switch("op")
        self._start = time.perf_counter()

    def stop(self) -> None:
        self.durations.append(time.perf_counter() - self._start)
        if self.tracer is not None:
            self.tracer.switch("idle")
        self._sample_reference()

    def _sample_reference(self) -> None:
        if self.reference_repeats:
            self.reference.append(reference_loop(self.reference_repeats) / self.reference_repeats)

    def cancel(self) -> None:
        if self.tracer is not None:
            self.tracer.switch("idle")

    def op_count(self, name: str) -> float:
        """A tracer counter summed over the ops so far (0 when untraced)."""
        return 0.0 if self.tracer is None else self.tracer.counts["op"][name]


def _ms(seconds: list[float], q: float) -> float:
    return 1e3 * float(np.percentile(seconds, q))


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One in-process ``detseg`` command; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_cli_child(argv: list[str]) -> tuple[int, str, str]:
    """One ``detseg`` command in a child process, which inherits the thread settings."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(detseg.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-m", "detseg.pipeline.cli", *argv], env=env,
                          capture_output=True, text=True, check=False)
    return done.returncode, done.stdout, done.stderr


def _pairwise_iou(boxes: np.ndarray) -> np.ndarray:
    """IoU of every pair of rows; written here so the check shares no code with detseg."""
    x0, y0, x1, y1 = (boxes[:, i] for i in range(4))
    iw = np.clip(np.minimum(x1[:, None], x1[None]) - np.maximum(x0[:, None], x0[None]), 0, None)
    ih = np.clip(np.minimum(y1[:, None], y1[None]) - np.maximum(y0[:, None], y0[None]), 0, None)
    inter = iw * ih
    area = (x1 - x0) * (y1 - y0)
    union = area[:, None] + area[None] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


class TrainToy64:
    """The README overfit setup: 5 synthetic 64x64 scenes, ``toy`` anchors, default model.

    One op is one optimizer step inside ``train_toy``, timed between two
    ``stop_check`` callbacks. A batch is one ``train_toy`` call of ``STEPS``
    steps on a freshly seeded model; its first interval (target assignment
    plus step 1) is not timed.
    """

    name = "train-toy64"
    STEPS = 50
    SIZE = 64
    IMAGES = 5
    SCHEDULE = LrSchedule(base_lr=0.001, max_iter=2000, power=0.9)  # README config
    FREEZE_STATS_AFTER = 600
    items_per_op = 1
    REFERENCE_REPEATS = 1  # about 3% of an op on each side

    def __init__(self, seed: int, workdir: str, traced: bool):
        self.seed = seed
        scenes = synth.make_dataset(seed, self.IMAGES, synth.SceneSpec(width=self.SIZE, height=self.SIZE))
        self.samples = [train.TrainSample(s.image.data, s.label_map.data, s.gts) for s in scenes]
        self.grid = geom.make_anchor_grid(self.SIZE, self.SIZE, 8, geom.anchor_preset("toy"))
        # The target assignment train_toy does up front: set-up work, not step work.
        for s in self.samples:
            train.prepare_targets(assign.assign_targets(self.grid, s.gts, self.SIZE, self.SIZE))
        model.DetSegModel(model.ModelConfig(), seed=seed)
        self.reference: list[float] | None = None
        self.loss_final: float | None = None

    def sizes(self) -> dict:
        return {"anchors": len(self.grid), "images": self.IMAGES, "image_size": [self.SIZE, self.SIZE],
                "steps_per_call": self.STEPS, "timed_steps_per_call": self.STEPS - 1}

    def batch(self, clock: OpClock, index: int) -> tuple[int, list[str]]:
        before = len(clock.durations)

        def stop_check(step, _model):
            if step > 1:
                clock.stop()
            clock.start()
            return False

        try:
            result = train.train_toy(
                self.samples, model.DetSegModel(model.ModelConfig(), seed=self.seed), self.grid,
                schedule=self.SCHEDULE, iterations=self.STEPS,
                freeze_stats_after=self.FREEZE_STATS_AFTER,
                stop_check=stop_check, stop_check_every=1,
            )
        except RuntimeError as exc:  # train_toy raises on a non-finite loss
            clock.cancel()
            return max(len(clock.durations) - before, 1), [f"train_toy: {exc}"]
        clock.cancel()
        timed = len(clock.durations) - before

        totals = [h["total"] for h in result.history]
        losses = [v for h in result.history for k, v in h.items()
                  if k not in ("iteration", "lr") and v is not None]
        failures = []
        if result.iterations_run != self.STEPS:
            failures.append(f"ran {result.iterations_run} of {self.STEPS} steps")
        if not all(np.isfinite(losses)):
            failures.append("non-finite loss in history")
        if not totals[-1] < totals[0]:
            failures.append(f"final loss {totals[-1]} is not below the first {totals[0]}")
        if self.reference is None:
            self.reference = totals
        elif totals != self.reference:
            failures.append("loss sequence differs from the first call with the same seed")
        self.loss_final = totals[-1]
        return timed, failures

    def detail(self, seconds: list[float]) -> dict:
        return {"steps_per_s": len(seconds) / sum(seconds), "step_p50_ms": _ms(seconds, 50),
                "step_p90_ms": _ms(seconds, 90), "loss_final": self.loss_final}


class AssignPaper:
    """``paper-table1`` anchors at 256x128 (74,240) over dense synthetic scenes.

    One op is ``assign_targets`` -> ``prepare_targets`` -> ``summarize_targets``
    for one scene, the path both training and the CLI ``assign`` command take.
    The scenes hold 3, 4, ..., 8 objects, one count each, in that order: the
    seed places and sizes the objects but does not pick how many, which
    sets the op's memory peak, and a run goes through every scene.
    """

    name = "assign-paper"
    WIDTH, HEIGHT = 256, 128
    OBJECTS = range(3, 9)
    SPEC = synth.SceneSpec(width=256, height=128, min_size=12, max_size=48)
    items_per_op = 1
    REFERENCE_REPEATS = 50  # about 3% of an op on each side

    def __init__(self, seed: int, workdir: str, traced: bool):
        self.grid = geom.make_anchor_grid(self.WIDTH, self.HEIGHT, 8, geom.anchor_preset("paper-table1"))
        self.scenes = [synth.synth_scene((seed, n), dataclasses.replace(self.SPEC, min_objects=n, max_objects=n)).gts
                       for n in self.OBJECTS]

    def sizes(self) -> dict:
        return {"anchors": len(self.grid), "images": len(self.OBJECTS), "image_size": [self.WIDTH, self.HEIGHT],
                "objects_per_image": list(self.OBJECTS)}

    def batch(self, clock: OpClock, index: int) -> tuple[int, list[str]]:
        gts = self.scenes[index % len(self.scenes)]
        rules_before = sum(clock.op_count(f"assign.rule.{r}") for r in RULES)
        anchors_before = clock.op_count("assign.anchors")
        clock.start()
        targets = assign.assign_targets(self.grid, gts, self.WIDTH, self.HEIGHT)
        arrays = train.prepare_targets(targets)
        summary = assign.summarize_targets(targets)
        clock.stop()

        failures = []
        n = len(self.grid)
        if summary.total != n or len(arrays.labels) != n:
            failures.append(f"state counts sum to {summary.total}, not {n} anchors")
        if summary.active != int(arrays.active.sum()) or summary.dontcare != int((arrays.labels == IGNORE).sum()):
            failures.append("summary and prepared arrays disagree")
        if clock.tracer is not None:
            rules = sum(clock.op_count(f"assign.rule.{r}") for r in RULES) - rules_before
            if rules != n or clock.op_count("assign.anchors") - anchors_before != n:
                failures.append(f"rule counts sum to {rules}, not {n} anchors")
        boxes = {g.instance_id: g.bbox.as_array() for g in gts}
        active = np.flatnonzero(arrays.active)
        if active.size == 0:
            failures.append("no active anchors")
        else:
            decoded = geom.decode_array(self.grid.boxes[active], arrays.deltas[active])
            expected = np.stack([boxes[i] for i in arrays.instance_ids[active]])
            err = float(np.abs(decoded - expected).max())
            if not err <= 1e-9:
                failures.append(f"active delta decodes {err:.3g} away from its box")
        return 1, failures

    def detail(self, seconds: list[float]) -> dict:
        return {"anchors_per_s": len(self.grid) * len(seconds) / sum(seconds),
                "scene_p50_ms": _ms(seconds, 50)}


class _CheckpointWorkload:
    """Shared set-up of the two detect workloads: ``synth`` then ``train-toy`` through the CLI.

    Untraced, both commands run in a child process, so that the peak RSS of
    this process covers calibration and the ops, not the set-up training;
    traced, they run in-process, so that the tracer sees them. The score
    threshold is then set from the trained model's own scores, so that the
    images yield ``CANDIDATES`` detections each before NMS on average,
    whatever the seed.
    """

    WIDTH = HEIGHT = 0
    IMAGES = 0
    TRAIN_STEPS = 10
    CANDIDATES = 0
    NMS_IOU = 0.5
    SCENE: dict = {}

    def __init__(self, seed: int, workdir: str, traced: bool):
        self.workdir = workdir
        self.data = os.path.join(workdir, "data")
        self.run = os.path.join(workdir, "run")
        os.makedirs(workdir, exist_ok=True)
        config = {
            "seed": seed,
            "model": {"num_classes": 3, "num_object_classes": 2, "embedding_dim": 4},
            "anchors": {"stride": 8, "preset": "toy"},
            "training": {"iterations": self.TRAIN_STEPS},
            "dataset": {"num_images": self.IMAGES, "width": self.WIDTH, "height": self.HEIGHT, **self.SCENE},
        }
        config_path = os.path.join(workdir, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        for argv in (["synth", "--config", config_path, "--output-dir", self.data],
                     ["train-toy", "--config", config_path, "--dataset", self.data, "--output-dir", self.run]):
            code, _, err = (run_cli if traced else run_cli_child)(argv)
            if code != 0:
                raise RuntimeError(f"detseg {argv[0]} failed: {err.strip()}")
        self.checkpoint = os.path.join(self.run, "checkpoint.nnad")
        image_dir = os.path.join(self.data, "images")
        self.images = sorted(os.path.join(image_dir, f) for f in os.listdir(image_dir))
        self.threshold = self._calibrate()

    def _calibrate(self) -> float:
        ckpt_config, tensors = checkpoint.load_checkpoint(self.checkpoint)
        net = model.DetSegModel(model.ModelConfig.from_dict(ckpt_config["model"]), seed=0)
        net.load_state(tensors)
        templates = net.config.anchors_per_cell
        scores = []
        for path in self.images:
            out = net.forward(netpbm.read_ppm(path)[None], training=False)
            logits = model.flatten_per_anchor(out["objectness"].data[0], templates)
            scores.append(1.0 / (1.0 + np.exp(logits[:, 0] - logits[:, 1])))
        pooled = np.sort(np.concatenate(scores))[::-1]
        return float(pooled[self.CANDIDATES * len(self.images) - 1])

    def sizes(self) -> dict:
        anchors = (self.WIDTH // 8) * (self.HEIGHT // 8) * len(geom.anchor_preset("toy"))
        return {"anchors": anchors, "images": self.IMAGES, "image_size": [self.WIDTH, self.HEIGHT],
                "train_steps": self.TRAIN_STEPS, "candidates_per_image": self.CANDIDATES,
                "score_threshold": self.threshold, "nms_iou": self.NMS_IOU}

    def check_detections(self, output: str, reported: int, kept_traced: float | None) -> list[str]:
        with open(output, "r", encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh if line.strip()]
        failures = []
        if len(rows) != reported:
            failures.append(f"{len(rows)} JSONL rows but detect reported {reported}")
        if kept_traced is not None and kept_traced != len(rows):
            failures.append(f"{len(rows)} JSONL rows but NMS kept {kept_traced:g}")
        groups: dict[tuple, list] = {}
        for r in rows:
            groups.setdefault((r["image_id"], r["class"]), []).append(
                [r["x_min"], r["y_min"], r["x_max"], r["y_max"]])
        for key, boxes in groups.items():
            overlaps = _pairwise_iou(np.array(boxes, dtype=np.float64))
            np.fill_diagonal(overlaps, 0.0)
            if overlaps.size and overlaps.max() > self.NMS_IOU:
                failures.append(f"kept boxes of class {key[1]} in {key[0]} overlap at {overlaps.max():.3f}")
                break
        return failures


class DetectDeploy(_CheckpointWorkload):
    """One in-process ``detseg detect`` call on one 256x128 image, with ``--seg-output``."""

    name = "detect-deploy"
    WIDTH, HEIGHT = 256, 128
    IMAGES = 4
    CANDIDATES = 10
    items_per_op = 1
    REFERENCE_REPEATS = 2  # about 3% of an op on each side

    def batch(self, clock: OpClock, index: int) -> tuple[int, list[str]]:
        image = self.images[index % len(self.images)]
        output = os.path.join(self.workdir, "detect.jsonl")
        seg_output = os.path.join(self.workdir, "detect_seg")
        kept_before = clock.op_count("post.kept")
        clock.start()
        code, out, err = run_cli([
            "detect", "--checkpoint", self.checkpoint, "--images", image, "--output", output,
            "--seg-output", seg_output, "--score-threshold", repr(self.threshold),
            "--nms-iou", repr(self.NMS_IOU),
        ])
        clock.stop()
        if code != 0:
            return 1, [f"detect exited {code}: {err.strip()}"]
        kept = None if clock.tracer is None else clock.op_count("post.kept") - kept_before
        failures = self.check_detections(output, json.loads(out)["detections"], kept)
        seg = os.path.join(seg_output, os.path.basename(image)[:-4] + ".pgm")
        if netpbm.read_pgm(seg).shape != (self.HEIGHT, self.WIDTH):
            failures.append("segmentation output has the wrong size")
        return 1, failures

    def detail(self, seconds: list[float]) -> dict:
        return {"detect_p50_ms": _ms(seconds, 50),
                "detect_p90_ms": _ms(seconds, 90)}


class EvalDense(_CheckpointWorkload):
    """One AP-evaluation round over a directory of 128x128 images.

    ``detect`` at a threshold giving about 10^3 candidates per image, then
    ``eval-det`` (cityscapes-adjusted), then ``eval-seg --instances``.
    """

    name = "eval-dense"
    WIDTH = HEIGHT = 128
    IMAGES = 4
    CANDIDATES = 1000
    SCENE = {"min_objects": 2, "max_objects": 6, "min_size": 10, "max_size": 32}
    items_per_op = IMAGES
    REFERENCE_REPEATS = 16  # about 3% of an op on each side

    def batch(self, clock: OpClock, index: int) -> tuple[int, list[str]]:
        det_path = os.path.join(self.workdir, "round.jsonl")
        det_report = os.path.join(self.workdir, "det_report.json")
        seg_report = os.path.join(self.workdir, "seg_report.json")
        kept_before = clock.op_count("post.kept")
        clock.start()
        results = [run_cli([
            "detect", "--checkpoint", self.checkpoint, "--images", os.path.join(self.data, "images"),
            "--output", det_path, "--seg-output", os.path.join(self.workdir, "round_seg"),
            "--score-threshold", repr(self.threshold), "--nms-iou", repr(self.NMS_IOU),
        ])]
        if results[0][0] == 0:
            results.append(run_cli([
                "eval-det", "--detections", det_path, "--annotations", os.path.join(self.data, "annotations"),
                "--mode", "cityscapes-adjusted", "--output", det_report,
            ]))
        if results[-1][0] == 0:
            results.append(run_cli([
                "eval-seg", "--pred", os.path.join(self.workdir, "round_seg"),
                "--gt", os.path.join(self.data, "labels"),
                "--instances", os.path.join(self.data, "instances"), "--output", seg_report,
            ]))
        clock.stop()

        for (code, _, err), command in zip(results, ("detect", "eval-det", "eval-seg")):
            if code != 0:
                return 1, [f"{command} exited {code}: {err.strip()}"]
        kept = None if clock.tracer is None else clock.op_count("post.kept") - kept_before
        failures = self.check_detections(det_path, json.loads(results[0][1])["detections"], kept)
        with open(det_report, "r", encoding="utf-8") as fh:
            aps = [v for per_level in json.load(fh)["ap"].values() for v in per_level.values()]
        with open(seg_report, "r", encoding="utf-8") as fh:
            seg = json.load(fh)
        for value in aps + [seg["mean_iou"], seg["mean_iiou"]]:
            if value is not None and not 0.0 <= value <= 1.0:
                failures.append(f"metric {value} outside [0, 1]")
                break
        return 1, failures

    def detail(self, seconds: list[float]) -> dict:
        return {"round_p50_ms": _ms(seconds, 50)}


WORKLOADS = {w.name: w for w in (TrainToy64, AssignPaper, DetectDeploy, EvalDense)}
