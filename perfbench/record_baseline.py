"""Run every workload on ten seeds and write the medians and spreads to a JSON file.

From the root of a checkout:

    python3 perfbench/record_baseline.py --out perfbench/baseline.json

It runs every workload of BENCHMARK.json on seeds 0 to 9 and writes a fresh
file.  For each workload and end-to-end metric it records the ten values,
their median and quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile distance as a share of the median, next to the metric's bound
from BENCHMARK.json.  For the times it records the same for the unscaled
medians (see run.py), which shows what the calibration buys, and the wall
seconds each run took.  One traced run per workload adds the per-layer
medians.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = list(range(10))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def note(notes: list[str], key: str) -> dict:
    return json.loads(next(ln[len(key) + 3:] for ln in notes if ln.startswith(f"# {key} ")))


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    out = {"seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        results, unscaled, run_s, env = [], [], [], None
        for seed in SEEDS:
            started = time.monotonic()
            res, notes = run(name, seed, spec["run_seconds"], 0)
            run_s.append(time.monotonic() - started)
            results.append(res)
            unscaled.append(note(notes, "unscaled"))
            env = env or note(notes, "env")
            print(name, seed, {k: round(v["value"], 4) for k, v in res["metrics"].items()},
                  "failed", res["failed"], f"run {run_s[-1]:.1f} s", flush=True)
        w = {
            "env": env,
            "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
            "unscaled": {k: spread([u[k] for u in unscaled]) for k in unscaled[0]},
            "run_s": run_s,
        }
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            w["end_to_end"][m["name"]] = {"unit": m["unit"], "bound": m["bound"], **spread(values)}
        traced, _ = run(name, SEEDS[0], spec["run_seconds"], 1)
        w["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        w["failed"] += traced["failed"]
        w["attempted"] += traced["attempted"]
        out["workloads"][name] = w
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
