"""tcbsde benchmark: time to a verified solve on three fixed pipelines.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain-equations --seed 0 --seconds 40 --trace 0

Workloads (see ``workloads.py`` and ``interactions.json``):

``wiener-solve``      oracle and LSMC solves of a time-varying linear problem, CSV export
``chain-montecarlo``  thinning simulation, killed-chain Monte Carlo, chain Picard solver
``chain-equations``   message problems by the backward ODE through the clock, probes

``--trace 0`` measures with no shim installed and reports the end-to-end
metrics: ``setup_s`` (process start through imports and input construction),
``cold_s`` (first iteration in a fresh process), ``wall_s`` (a warm
iteration) and ``peak_rss_mb``.  The run starts ``PROCESSES`` fresh
processes one after another; each sets up, runs its cold iteration and then
warm iterations, so that every metric is a median over samples spread across
the whole run.  ``--trace 1`` runs one process that alternates untraced and
traced iterations and reports the per-layer metrics of ``spans.py``, writing
the span log under ``perfbench-out/``.

``--seconds`` is the budget of the whole run, set-up and cold iterations
included: each process gets an equal share of what is left when it starts
and begins no iteration that it expects to end past its share.  Each process
still runs its cold iteration and one warm iteration, so a run exceeds
``--seconds`` by more than the exit of its last process only when that
minimum does not fit.  At 40 seconds the baseline runs took 37.8 to 40.2.

End-to-end times are in reference seconds.  On a shared virtual machine the
speed of the CPU drifts by a fifth or more over tens of seconds, so a fixed
calibration kernel that uses no tcbsde code (``worker.calibrate``) is timed
after the cold iteration and after every warm one, and each measured time is
scaled by ``CAL_REF_S / calibration time``: a warm iteration by the mean of
the two calibrations that bracket it, set-up and the cold iteration by the
median calibration of their process (one calibration taken next to them is
noisier than the drift it corrects).  ``CAL_REF_S`` is the kernel's median time on the
2-vCPU Intel Xeon on which the baseline was recorded.  The lines before the
result also give the unscaled medians.

Iteration seeds are ``--seed``, ``--seed + 1``, ..., distinct within a run.
Every iteration ends in checks against exact references; Monte Carlo checks
are pooled over the run.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it give sample counts, the failed fraction and the
environment.  BLAS and OpenMP run one thread, and one process generates the
load at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from checks import pooled_check

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("wiener-solve", "chain-montecarlo", "chain-equations")
PROCESSES = {"full": 5, "tiny": 1}
RUN_LIMIT_S = 170.0
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
OUT_DIR = "perfbench-out"
CAL_REF_S = 0.2
STARTED = time.monotonic()


class WorkerFailed(RuntimeError):
    pass


def spawn(args, mode: str, seed: int, stride: int, seconds: float) -> dict:
    env = dict(os.environ, **THREADS)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(seed), "--stride", str(stride), "--mode", mode,
        "--seconds", repr(seconds), "--size", args.size, "--out-dir", OUT_DIR,
    ]
    budget = RUN_LIMIT_S - (time.monotonic() - STARTED)
    if budget <= 0:
        raise WorkerFailed("no time left for another worker process")
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=budget,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {mode} seed {seed} exited with {proc.returncode}")
    return json.loads(lines[-1])


def left(seconds: float) -> float:
    return seconds - (time.monotonic() - STARTED)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(results: list[dict]) -> dict:
    """Medians of the scaled times (see the module docstring) and of peak RSS.

    A time of which no sample completed is left out of the result.
    """
    scaled = {"setup_s": [], "cold_s": [], "wall_s": []}
    raw = {"setup_s": [], "cold_s": [], "wall_s": []}

    def add(key, seconds, cal_s):
        if seconds is not None:
            scaled[key].append(seconds * CAL_REF_S / cal_s)
            raw[key].append(seconds)

    for r in results:
        cal = r["cal_s"]
        add("setup_s", r["setup_s"], statistics.median(cal))
        add("cold_s", r["cold_s"], statistics.median(cal))
        for i, w in enumerate(r["warm_s"]):
            add("wall_s", w, 0.5 * (cal[i] + cal[i + 1]))
    metrics = {k: metric(statistics.median(v), "s") for k, v in scaled.items() if v}
    metrics["peak_rss_mb"] = metric(statistics.median(r["peak_rss_mb"] for r in results), "MB")
    for k, v in scaled.items():
        if v:
            print(f"# {k} {metrics[k]['value']:.6g} s (median of {len(v)}, min {min(v):.6g}, "
                  f"max {max(v):.6g}; unscaled median {statistics.median(raw[k]):.6g})")
    print(f"# peak_rss_mb {metrics['peak_rss_mb']['value']:.6g} MB (median of {len(results)} processes)")
    cal = [c for r in results for c in r["cal_s"]]
    print(f"# calibration median {statistics.median(cal):.6g} s of {len(cal)}, reference {CAL_REF_S} s")
    print(f"# unscaled {json.dumps({k: statistics.median(v) for k, v in raw.items() if v})}")
    return metrics


def per_layer(result: dict, units: dict) -> dict:
    """Medians over the traced iterations, with the units named in BENCHMARK.json."""
    layers = result.get("layers")
    if layers is None:
        return {}
    print(f"# traced iterations {result['traced_iterations']}, untraced iterations "
          f"{len(result['warm_s'])}; medians, in unscaled seconds")
    return {k: metric(layers[k], units[k]) for k in sorted(units)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", default="full", choices=sorted(PROCESSES),
                    help="problem sizes; 'tiny' exists for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "tcbsde", "__init__.py")):
        print("run from the root of a tcbsde checkout: src/tcbsde is missing", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    try:
        if args.trace:
            results = [spawn(args, "trace", args.seed, 1, left(args.seconds))]
        else:
            n = PROCESSES[args.size]
            results = [spawn(args, "timed", args.seed + k, n, left(args.seconds) / (n - k)) for k in range(n)]
    except (WorkerFailed, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    specs = results[-1]["pooled_specs"]
    for name, spec in specs.items():
        check = pooled_check(name, spec, [s for r in results for s in r["pooled"][name]])
        attempted += 1
        if not check.passed:
            failures.append(f"{name}(pooled)={check.value:.6g}>{check.limit:.6g}")

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"# env {json.dumps(results[-1]['env'], sort_keys=True)}")
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]}
    metrics = per_layer(results[0], declared) if args.trace else end_to_end(results)
    print(f"# failed_frac {len(failures) / attempted:.6g} ({len(failures)} of {attempted} checks)")
    for f in failures:
        print(f"# FAILED {f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"benchmark failed: no iteration completed, so {', '.join(missing)} could not be measured",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
