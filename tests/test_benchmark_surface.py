"""The benchmark's workloads still run on this tree.

``perfbench/`` reads parts of detseg that product code alone would let a
change reshape or drop: each head output's ``.data``, ``SceneSample``'s
wrapped ``image`` and ``label_map``, ``train.prepare_targets``, the scalar
``geom.encode``/``decode``, the four dense per-anchor views of the
assignment record (``labels``, ``active``, ``deltas`` and ``instance_ids``,
which ``assign-paper`` checks its ops with), the ``(record, rules)`` pair
that ``assign.assign_targets_detailed`` returns (its tracer counts the
rules in ``result[1]``) and every name its tracer wraps by ``getattr``.
Each workload is built here as the benchmark builds it and runs one batch
untraced and one traced, so that breaking one of those surfaces fails the
tests, not a benchmark run.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_one_batch_untraced_and_traced(name, tmp_path):
    workload = workloads.WORKLOADS[name](1, str(tmp_path), False)
    attempted, failures = workload.batch(workloads.OpClock(), 0)
    assert attempted >= 1 and failures == []
    with tracing.Tracer() as tracer:
        tracer.switch("idle")
        attempted, failures = workload.batch(workloads.OpClock(tracer), 1)
    assert attempted >= 1 and failures == []
    assert tracer.calls["op"], "the traced batch recorded no span"
