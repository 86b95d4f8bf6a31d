"""Checks of the benchmark's own machinery, at tiny sizes.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

from detseg import geom
from detseg.losses import LrSchedule
from detseg.net import layers, model, train
from detseg.pipeline import synth
import detseg.pipeline.cli  # noqa: F401  (the tracer wraps it: load it before the snapshots)

import run
import tracer as tracing

_HERE = os.path.dirname(os.path.abspath(__file__))


def _bindings() -> dict:
    """Every attribute of every loaded detseg module and layer/model class."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "detseg" or name.startswith("detseg.")):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (model.DetSegModel, layers.Sequential, layers.Conv2d, layers.DepthwiseConv2d,
                layers.TransposedConv2d, layers.BatchNorm2d, layers.ReLU, layers.MaxPool2x2):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def _tiny_training():
    scenes = synth.make_dataset(3, 2, synth.SceneSpec(width=32, height=32, max_objects=2, min_size=6, max_size=12))
    samples = [train.TrainSample(s.image.data, s.label_map.data, s.gts) for s in scenes]
    grid = geom.make_anchor_grid(32, 32, 8, geom.anchor_preset("toy"))
    result = train.train_toy(samples, model.DetSegModel(model.ModelConfig(), seed=3), grid,
                             schedule=LrSchedule(base_lr=0.001, max_iter=100, power=0.9), iterations=3)
    return result.history


def test_tracer_restores_every_wrapped_callable():
    before = _bindings()
    with tracing.Tracer() as t:
        wrapped = _bindings()
        assert t._patches
    after = _bindings()
    assert wrapped != before
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_restores_after_an_error():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            1 / 0
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_traced_training_is_bit_identical_and_fully_accounted():
    untraced = _tiny_training()
    t = tracing.Tracer()
    with t:
        t.switch("op")
        start = time.perf_counter()
        traced = _tiny_training()
        wall = time.perf_counter() - start
        t.switch("idle")
    assert traced == untraced
    calls = t.calls["op"]
    assert calls["net.forward"] == calls["net.backward"] == 3
    assert calls["net.maxpool.fwd"] == 2 * 3
    # Self times partition the traced interval: nothing is charged twice.
    charged = sum(t.self_s["op"].values())
    assert 0.5 * wall < charged <= wall


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(_HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    assert names == [n for n in run.WORKLOAD_NAMES if n in names]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.LAYER_METRICS
