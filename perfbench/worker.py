"""One workload process: set up, run iterations, print one JSON line.

Started by ``run.py`` from the root of a checkout; imports ``tcbsde`` from
that checkout's ``src/``.  Iteration seeds are ``--seed``, ``--seed +
--stride``, ... so that the processes of one run never share a seed.
``--seconds`` is the process's whole budget, counted from ``--spawned-at``:
after set-up and the cold iteration it starts another iteration only if the
last one, repeated, would end within the budget, and it always runs at least
one warm iteration.  Modes:

``timed``  set up, run the first iteration of the fresh process (cold), then
           warm iterations, each followed by a calibration;
``trace``  after the cold iteration, alternate untraced and traced iterations;
           only this mode installs shims.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
import traceback

SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tcbsde  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import Check  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Run:
    """Checks, pooled samples and iteration times collected by one process."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []
        self.pooled = {name: [] for name in workload.pooled_names}

    def iterate(self, seed: int):
        """Run one iteration; returns its wall seconds, or None when it raised."""
        gc.collect()  # start every iteration from the same heap, without the last one's garbage
        t0 = time.perf_counter()
        try:
            checks, pooled = self.workload.iterate(seed)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            # every check of an iteration that raised counts as failed
            checks, pooled = [Check(n, float("nan"), 0.0) for n in self.workload.check_names], None
        wall = time.perf_counter() - t0
        self.attempted += len(checks)
        self.failures += [f"{c.name}@{seed}={c.value:.6g}>{c.limit:.6g}" for c in checks if not c.passed]
        if pooled is None:
            return None
        for name, sample in pooled.items():
            self.pooled[name].append(sample)
        return wall


def calibrate() -> float:
    """Seconds taken by a fixed kernel that uses no tcbsde code.

    Half of it is scalar numpy calls made from a Python loop, half
    vectorised array work (least squares, stable sorts, reductions), as in
    the workloads.  Timed after the cold iteration and after every warm
    one, it measures how fast the machine runs at that moment.
    """
    rng = np.random.default_rng(0)
    nodes = np.linspace(0.0, 1.0, 201)
    values = nodes**2
    X = rng.standard_normal((10_000, 4))
    y = rng.standard_normal(10_000)
    t0 = time.perf_counter()
    acc = 0.0
    for t in np.linspace(0.001, 0.999, 4000):
        a = np.asarray(t, dtype=float)
        if np.any(~np.isfinite(a)) or np.any(a < 0.0) or np.any(a > 1.0):
            raise ValueError("calibration probe left its range")
        acc += float(np.interp(a, nodes, values))
    for _ in range(50):
        coef = np.linalg.lstsq(X, y, rcond=None)[0]
        order = np.argsort(y, kind="stable")
        acc += float(coef[0]) + float((X * y[:, None]).sum()) + float(order[0])
    return time.perf_counter() - t0


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("timed", "trace"))
    ap.add_argument("--stride", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0.0, help="wall budget of the process")
    ap.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    ap.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    if not os.path.realpath(tcbsde.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"tcbsde imported from {tcbsde.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    cls = workloads.WORKLOADS[args.workload]
    run = Run(cls(args.size, out_dir=args.out_dir))
    if args.mode == "trace":
        tracer = spans.Tracer()
        traced = Run(cls(args.size, count=tracer.counted, out_dir=args.out_dir))
    setup_s = time.monotonic() - args.spawned_at

    seeds = iter(range(args.seed, 2**31, args.stride))
    deadline = args.spawned_at + args.seconds

    def room_for(step_s: float) -> bool:
        return time.monotonic() + step_s <= deadline

    # cal_s[0] follows the cold iteration; cal_s[i] and cal_s[i + 1] bracket warm iteration i
    result = {"setup_s": setup_s, "warm_s": [], "env": environment()}
    result["cold_s"] = run.iterate(next(seeds))
    result["cal_s"] = [calibrate()]

    if args.mode == "timed":
        while True:
            t0 = time.monotonic()
            result["warm_s"].append(run.iterate(next(seeds)))
            result["cal_s"].append(calibrate())
            if not room_for(time.monotonic() - t0):
                break
    else:
        per_iteration = []
        while True:
            t0 = time.monotonic()
            wall = run.iterate(next(seeds))
            if wall is not None:
                result["warm_s"].append(wall)
            with spans.install(tracer):
                wall = traced.iterate(next(seeds))
            layers = tracer.finish_iteration(wall or 0.0)
            if wall is not None:
                per_iteration.append(layers)
            if not room_for(time.monotonic() - t0):
                break
        if per_iteration and result["warm_s"]:
            layers = spans.median_metrics(per_iteration)
            untraced = float(np.median(result["warm_s"]))
            layers["trace.overhead_frac"] = layers["trace.iteration_s"] / untraced - 1.0
            result["layers"] = layers
            result["traced_iterations"] = len(per_iteration)
        tracer.save(os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.npz"))
        run.attempted += traced.attempted
        run.failures += traced.failures
        for name, samples in traced.pooled.items():
            run.pooled[name] += samples

    result.update(
        attempted=run.attempted,
        failures=run.failures,
        pooled=run.pooled,
        pooled_specs=run.workload.pooled_specs(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
