"""Run one workload of the detseg benchmark and print its result as JSON.

    python3 perfbench/run.py --workload train-toy64 --seed 1 --seconds 22 --trace 0

Run it from the root of a source tree: it imports ``detseg`` from ``src/``
and keeps its scratch files under ``.bench_work/``, which it removes again.
Standard output ends with three JSON lines: the environment block, the
workload's own figures, and the result object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
figures of a traced run. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

# Every workload runs in this one process, single-threaded BLAS included:
# at these matrix sizes a second OpenBLAS thread only spins and adds noise.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
THREADS = "1"
# An untraced run sets up at least 3 times, and more (up to 20) until about
# 2 s go into set-up, so that a cheap set-up is still timed steadily.
# setup_s is the median.
SETUP_MIN_REPEATS, SETUP_MIN_SECONDS, SETUP_MAX_REPEATS = 3, 2.0, 20
WORKLOAD_NAMES = ("train-toy64", "assign-paper", "detect-deploy", "eval-dense")

# The gated metrics. detseg serves no requests as they arrive, so its
# end-to-end figure is work done per second at a stated input size. The
# machine this runs on speeds up and slows down by 20-40% within a minute,
# so the gated rate is counted in reference-loop time, measured beside the
# ops (see README.md, Noise); the rate in wall-clock seconds and the op
# latency percentiles go in the detail line, ungated.
END_TO_END = {  # name -> unit
    "setup_s": "s",
    "images_per_ref_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit(root: str):
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: str, args, workload) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes(),
    }


class Tally:
    """Ops attempted and failed over a run, with the first failure messages."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.messages: list[str] = []

    def batch(self, workload, clock, index: int) -> None:
        n, failures = workload.batch(clock, index)
        self.attempted += n
        if failures:
            self.failed += n
            self.messages.extend(failures)


def measure(args, root: str, workdir: str):
    import tracer as tracing
    from workloads import REFERENCE_LOOP_S, WORKLOADS, OpClock

    cls = WORKLOADS[args.workload]
    setup_times: list[float] = []

    def set_up(context=contextlib.nullcontext()):
        start = time.perf_counter()
        with context:
            workload = cls(args.seed, os.path.join(workdir, f"setup{len(setup_times)}"), bool(args.trace))
        setup_times.append(time.perf_counter() - start)
        return workload

    tracer = tracing.Tracer() if args.trace else None
    workload = set_up(tracer or contextlib.nullcontext())
    tally = Tally()
    tally.batch(workload, OpClock(), 0)  # warm-up: its checks count, its times do not
    clock = OpClock(reference_repeats=0 if args.trace else cls.REFERENCE_REPEATS)
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        # Each input runs untraced, then traced, so that both see the same
        # inputs and the same drift in machine speed, and their difference
        # is the tracing overhead.
        traced = OpClock(tracer)
        for index in itertools.count():
            if time.perf_counter() >= deadline:
                break
            tally.batch(workload, clock, index)
            with tracer:
                tracer.switch("idle")
                tally.batch(workload, traced, index)
        layers = tracing.layer_metrics(tracer, len(traced.durations), sum(traced.durations),
                                       1e3 * statistics.fmean(clock.durations))
        layers["losses.loss_final"] = getattr(workload, "loss_final", None) or 0.0
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, (unit, _) in tracing.LAYER_METRICS.items()}
    else:
        # The further set-ups are spread evenly over the run (for 3 set-ups,
        # at a third and two thirds of it), between batches and outside the
        # measured time, so that setup_s sees the machine's drift in speed
        # the way the ops do.
        repeats = min(max(SETUP_MIN_REPEATS, math.ceil(SETUP_MIN_SECONDS / setup_times[0])),
                      SETUP_MAX_REPEATS)
        start = time.perf_counter()
        index = 0
        while time.perf_counter() < deadline:
            spent = time.perf_counter() - start - sum(setup_times[1:])
            if len(setup_times) < repeats and spent >= args.seconds * len(setup_times) / repeats:
                before = time.perf_counter()
                set_up()
                deadline += time.perf_counter() - before
            else:
                tally.batch(workload, clock, index)
                index += 1
        while len(setup_times) < SETUP_MIN_REPEATS:
            set_up()
        # Images per second of op time, scaled by how much slower than on the
        # reference machine this machine ran the reference loop meanwhile.
        rate = workload.items_per_op * len(clock.durations) / sum(clock.durations)
        values = {
            "setup_s": statistics.median(setup_times),
            "images_per_ref_s": rate * statistics.fmean(clock.reference) / REFERENCE_LOOP_S,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    # In a traced run too, the workload's own figures come from the untraced
    # batches; the traced op time is reported as op.traced_ms.
    seconds = clock.durations
    detail = {
        "workload": args.workload,
        "ops_timed": len(seconds),
        "op_p50_ms": 1e3 * statistics.median(seconds),
        "images_per_s": workload.items_per_op * len(seconds) / sum(seconds),
        "reference_loop_ms": 1e3 * statistics.fmean(clock.reference) if clock.reference else None,
        "setup_runs_s": setup_times,
        "error_rate": tally.failed / tally.attempted,
        "failures": tally.messages[:5],
        **workload.detail(seconds),
    }
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    return environment(root, args, workload), detail, result


def main(argv=None) -> int:
    args = parse_args(argv)
    # Before numpy is first imported, which happens only below this point.
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    os.environ.pop("NNAD_SEED", None)  # would override the seed written into the configs
    sys.dont_write_bytecode = True
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "detseg", "__init__.py")):
        print(f"error: no detseg sources under {src}; run from the root of a detseg checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    work_root = os.path.join(root, ".bench_work")
    workdir = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    try:
        env, detail, result = measure(args, root, workdir)
    except Exception:  # report and fail the run; no result line is printed
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(work_root) and not os.listdir(work_root):
            os.rmdir(work_root)
    print(json.dumps({"environment": env}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
