"""Tests of the benchmark itself, at the tiny sizes.  Run from the repository root:

    python3 -m pytest perfbench
"""

import importlib
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from checks import Check, pooled_check

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _worker(monkeypatch):
    # worker.py puts <cwd>/src first on sys.path when imported
    monkeypatch.chdir(ROOT)
    return importlib.import_module("worker")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(v["value"]) for v in out["metrics"].values())
    assert "# failed_frac" in proc.stdout


def test_run_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "perfbench").symlink_to(ROOT / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_seconds_caps_the_whole_run():
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain-equations", "--seed", "0",
         "--seconds", "8", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0
    # tiny iterations take well under a second: the run fills its budget and stops inside it
    assert 4.0 < elapsed < 10.0


def test_run_with_no_completed_iteration_reports_its_failed_checks(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    run = importlib.import_module("run")
    every_iteration_raised = {
        "attempted": 10, "failures": [f"check@{k}" for k in range(10)], "pooled": {}, "pooled_specs": {},
        "env": {}, "setup_s": 0.9, "cold_s": None, "warm_s": [None], "cal_s": [0.2, 0.2], "peak_rss_mb": 80.0,
    }
    monkeypatch.setattr(run, "spawn", lambda *args: every_iteration_raised)
    code = run.main(["--workload", "wiener-solve", "--seed", "0", "--seconds", "1", "--trace", "0",
                     "--size", "tiny"])
    stdout = capsys.readouterr().out
    assert code != 0
    assert "# failed_frac 1 (10 of 10 checks)" in stdout
    out = json.loads(stdout.strip().splitlines()[-1])
    assert out["correct"] is False and out["attempted"] == out["failed"] == 10
    assert "wall_s" not in out["metrics"] and "cold_s" not in out["metrics"]


def test_wrong_reference_fails_its_check(monkeypatch, tmp_path):
    worker = _worker(monkeypatch)
    wl = worker.workloads.ChainEquations("tiny", out_dir=str(tmp_path))
    run = worker.Run(wl)
    run.iterate(0)
    assert not any(f.startswith("reach_vs_exact_constant") for f in run.failures)

    case, loss, exact, limit = wl.cases[0]
    wl.cases[0] = (case, loss, exact + 0.1, limit)
    run.iterate(1)
    assert any(f.startswith("reach_vs_exact_constant@1") for f in run.failures)
    assert run.attempted == 2 * len(wl.check_names)


def test_iteration_that_raises_fails_all_its_checks(monkeypatch, tmp_path):
    worker = _worker(monkeypatch)
    wl = worker.workloads.WienerSolve("tiny", out_dir=str(tmp_path))

    def boom(seed):
        raise FloatingPointError("injected")

    monkeypatch.setattr(wl, "iterate", boom)
    run = worker.Run(wl)
    assert run.iterate(0) is None
    assert run.attempted == len(run.failures) == len(wl.check_names)


def test_pooled_checks_against_wrong_references():
    binomial = {"kind": "binomial", "ref": 0.4214, "sigmas": 3.0}
    samples = [(4218, 10_000), (4296, 10_000)]
    assert pooled_check("killed", binomial, samples).passed
    assert not pooled_check("killed", dict(binomial, ref=0.45), samples).passed
    mean = {"kind": "mean", "ref": 0.649, "limit": 0.02}
    assert pooled_check("picard", mean, [0.646, 0.649]).passed
    assert not pooled_check("picard", dict(mean, ref=0.7), [0.646, 0.649]).passed
    assert not pooled_check("picard", mean, []).passed
    assert not Check("nan", math.nan, 1.0).passed


def test_untraced_run_installs_no_shim(monkeypatch, tmp_path, capsys):
    worker = _worker(monkeypatch)
    spans = worker.spans

    def refuse(tracer):
        raise AssertionError("an untraced run installed shims")

    monkeypatch.setattr(spans, "install", refuse)
    code = worker.main([
        "--workload", "chain-equations", "--seed", "0", "--mode", "timed", "--seconds", "0",
        "--size", "tiny", "--spawned-at", repr(time.monotonic()), "--out-dir", str(tmp_path),
    ])
    assert code == 0
    assert spans.installed_shims() == []
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["attempted"] == 2 * len(worker.workloads.ChainEquations.check_names)


def test_install_patches_every_binding_and_restores(monkeypatch):
    spans = _worker(monkeypatch).spans
    with spans.install(spans.Tracer()):
        found = set(spans.installed_shims())
    assert {
        "tcbsde.timechange.SampledPath.at",
        "tcbsde.timechange.build_clock_from_density",
        "tcbsde.chain.build_clock_from_density",
        "tcbsde.chain.simulate_chain",
        "tcbsde.wiener.solve_lsmc",
        "tcbsde.io.write_solution_csv",
    } <= found
    assert spans.installed_shims() == []


def test_self_time_subtracts_children_and_counts_land_in_innermost_span(monkeypatch):
    spans = _worker(monkeypatch).spans
    tr = spans.Tracer()
    outer = tr.open("chain.ode")
    inner = tr.open("timechange.at")
    tr.count("rate_fn")
    tr.close(inner)
    tr.count("rate_fn")
    tr.close(outer)
    wall = tr.end[outer] - tr.start[outer]
    m = tr.finish_iteration(wall)
    assert m["chain.ode.self_s"] == pytest.approx(wall - (tr.end[inner] - tr.start[inner]))
    assert m["chain.ode.self_s"] + m["timechange.at.self_s"] == pytest.approx(wall)
    assert m["trace.residual_s"] == pytest.approx(0.0, abs=1e-12)
    assert m["chain.ode.rate_evals"] == 1 and m["timechange.at.calls"] == 1


def test_cold_iteration_comes_first_in_the_process(monkeypatch, tmp_path, capsys):
    # nothing timed before it warms the routines the workload calls: no
    # calibration, and no reference computed with the program
    worker = _worker(monkeypatch)
    cls = worker.workloads.ChainMonteCarlo
    events = []

    def record(name, fn):
        def wrapper(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(worker, "calibrate", record("calibrate", worker.calibrate))
    monkeypatch.setattr(cls, "iterate", record("iterate", cls.iterate))
    monkeypatch.setattr(cls, "pooled_specs", record("pooled_specs", cls.pooled_specs))
    ch = worker.workloads.ch
    monkeypatch.setattr(ch, "solve_chain_bsde", record("solve_chain_bsde", ch.solve_chain_bsde))
    code = worker.main([
        "--workload", "chain-montecarlo", "--seed", "0", "--mode", "timed", "--seconds", "0",
        "--size", "tiny", "--spawned-at", repr(time.monotonic()), "--out-dir", str(tmp_path),
    ])
    assert code == 0
    assert events[0] == "iterate" and "calibrate" in events
    last_iteration = max(i for i, e in enumerate(events) if e == "iterate")
    assert events.index("pooled_specs") > last_iteration
    capsys.readouterr()
