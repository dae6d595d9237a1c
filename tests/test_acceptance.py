"""Acceptance gate: every top-level criterion at its pinned tolerance.

Each test runs the corresponding registered scenario at the criterion's
parameters, asserts every verdict at its stated tolerance plus the runtime
limit, and prints one visible PASS/FAIL line.  Criterion 3 additionally
sweeps ten seeds and demands a pass rate of at least 9/10.
"""

import time

import pytest

from tcbsde.harness import ExperimentConfig, run_scenario, seed_sweep


def _run(capsys, criterion, scenario, limit_seconds, *, paths=None, params=None, sweep=None):
    cfg = ExperimentConfig(scenario=scenario, paths=paths, params=params or {})
    t0 = time.perf_counter()
    if sweep:
        bundle = seed_sweep(cfg, sweep, write=False)
    else:
        bundle = run_scenario(cfg, write=False)
    elapsed = time.perf_counter() - t0
    ok = bundle.all_passed and elapsed < limit_seconds
    tag = "PASS" if ok else "FAIL"
    detail = "; ".join(v.line() for v in bundle.verdicts if not v.passed) or "all verdicts pass"
    with capsys.disabled():
        print(f"{tag} {criterion} [{scenario}] {elapsed:.1f}s/{limit_seconds:.0f}s: {detail}")
    assert bundle.all_passed, "\n".join(v.line() for v in bundle.verdicts)
    assert elapsed < limit_seconds, f"runtime {elapsed:.1f}s exceeds {limit_seconds}s"
    return bundle


def test_criterion_01_clock_correctness(capsys):
    # clock density 1 + 2s against the quadratic-formula inverse, 20 probes
    # within 10 * grid step
    _run(capsys, "criterion-01 clock-correctness", "quadratic-clock-inverse", 1.0)


def test_criterion_02_transformed_driver_lipschitz(capsys):
    # 5 randomized drivers with density up to 25: transformed probe ratio
    # <= 1 + 1e-6 over 1e4 probes, raw ratio above 1.5 somewhere
    _run(capsys, "criterion-02 transformed-lipschitz", "transformed-driver-lipschitz", 10.0)


def test_criterion_03_levy_variance(capsys):
    # Var(W~_1) in [0.95, 1.05] at P = 1e4 with pass rate >= 9/10 over seeds
    _run(
        capsys,
        "criterion-03 levy-variance",
        "brownian-variance",
        30.0,
        paths=10_000,
        sweep=list(range(10)),
    )


def test_criterion_04_equivalence(capsys):
    # time-varying r_t = 0.1 (1 + t): direct vs transform-solve-map within 3%
    # of the value scale, P = 2e3, 50 steps
    bundle = _run(capsys, "criterion-04 equivalence", "linear-equivalence", 120.0, paths=2000)
    # the image target makes the transformed scheme the direct one, so the gap is rounding
    assert bundle.metadata["step_variances_identical"] == "True"


def test_criterion_05_lsmc_vs_closed_form(capsys):
    # regression solver within 5% of the oracle-validated closed form,
    # P = 2e4, 100 steps
    _run(capsys, "criterion-05 lsmc-vs-closed-form", "lsmc-vs-closed-form", 120.0, paths=20_000)


def test_criterion_06_comparison(capsys):
    # dominated-terminal scalar pair: zero node-mean violations beyond 3 SE
    _run(capsys, "criterion-06 comparison", "comparison-order", 60.0, paths=10_000)


def test_criterion_07_bounded_solution(capsys):
    # monotone cubic driver, |terminal| <= 1: sup |Y| <= 1.02
    _run(capsys, "criterion-07 bounded-solution", "bounded-solution", 120.0, paths=20_000)


def test_criterion_08_psi_properties(capsys):
    # 100 random generators x unit vectors: exact symmetry, eigenvalues
    # >= -1e-12, hand-computed 2-state case exact
    _run(capsys, "criterion-08 psi-properties", "psi-properties", 5.0)


def test_criterion_09_chain_transform_law(capsys):
    # occupancy two-sample check per state within 3/sqrt(P) at P = 1e4
    _run(capsys, "criterion-09 chain-transform-law", "chain-transform-law", 60.0, paths=10_000)


def test_criterion_10_message_transmission(capsys):
    # reach probability 0.5 +- 0.02 and killed-chain agreement within 3 SE;
    # time-varying loss agrees within 3 SE at P = 2e4
    _run(capsys, "criterion-10 message-transmission", "message-transmission", 120.0, paths=20_000)


def test_criterion_11_bound_verification(capsys):
    # monotone-decreasing message driver: sup |Y| / (2 K1) and the tight
    # variant sup |Y| / K1 both <= 1.02
    _run(capsys, "criterion-11 bound-verification", "chain-bound-verification", 60.0)


def test_criterion_12_gamma_balance_preservation(capsys):
    # 3 constructed drivers, 1e3 probes: transformed balance with the same gamma
    _run(
        capsys,
        "criterion-12 gamma-balance",
        "gamma-balance-preservation",
        10.0,
        params={"probes": 1000},
    )
