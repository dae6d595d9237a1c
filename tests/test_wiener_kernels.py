"""The fast Wiener solvers against their slow references in ``wiener_reference``.

The fast solvers sum in another order (one operator per step variance, built
from the spline coefficients, and one block of right-hand sides per
regression), so they agree with the references to rounding, not bit for bit:
1e-12 relative to the largest magnitude of each compared quantity.
"""

import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from tcbsde import wiener
from tcbsde.timechange import (
    LINEAR,
    CoefficientProcesses,
    IncreasingProcess,
    SampledPath,
    TimeGrid,
    build_phi,
)
from tcbsde.wiener import (
    BrownianEnsemble,
    PolynomialPayoff,
    TerminalRule,
    WienerBSDEProblem,
    simulate_brownian,
    solve_lsmc,
    solve_picard_oracle,
    transform_driver,
)
from util import coeffs_on, grid_uniform, linear_problem
from wiener_reference import reference_solve_lsmc, reference_solve_picard_oracle

RTOL = 1e-12


def assert_agree(fast, ref):
    def close(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        assert a.shape == b.shape
        assert np.max(np.abs(a - b), initial=0.0) <= RTOL * np.max(np.abs(b), initial=0.0)

    np.testing.assert_array_equal(fast.stop_idx, ref.stop_idx)
    close(fast.Y, ref.Y)
    close(fast.Z, ref.Z)
    assert fast.metadata.keys() == ref.metadata.keys()
    if fast.scheme == "lsmc":
        close(fast.metadata["y0_se"], ref.metadata["y0_se"])
        assert fast.metadata["rank_deficient"] == ref.metadata["rank_deficient"]
        assert fast.metadata["truncated_fraction"] == ref.metadata["truncated_fraction"]
    else:
        close(fast.metadata["iterate_distances"], ref.metadata["iterate_distances"])
        assert fast.metadata["diverging"] == ref.metadata["diverging"]
        close(fast.metadata["state_values"][1], ref.metadata["state_values"][1])


def _time_varying_problem(grid):
    # r = 0.5 (1 + t)^2 makes the clock density, hence the step variances, vary
    r = SampledPath(grid, 0.5 * (1.0 + grid.nodes) ** 2, LINEAR)
    u = SampledPath(grid, np.full(grid.n_nodes, 0.3), LINEAR)
    c = CoefficientProcesses.lipschitz(r, u, eps=0.05)

    def driver(t, w, y, z):
        return float(c.r.at(t)) * y + float(c.u.at(t)) * z[:, 0]

    return WienerBSDEProblem(
        k=1, d=1, driver=driver, coeffs=c, terminal=TerminalRule(kind="fixed"),
        payoff=PolynomialPayoff((1.0, 2.0, 1.0)),
    )


def _exit_problem(grid):
    return WienerBSDEProblem(
        k=1,
        d=1,
        driver=lambda t, w, y, z: 0.2 * y - 0.3 * z[:, 0],
        coeffs=coeffs_on(grid, 0.2, 0.3, eps=0.05),
        terminal=TerminalRule(kind="first_exit", coord=0, lower=-0.6, upper=0.8),
        payoff=lambda tau, w: 1.0 + tau + w[..., 0] ** 2,
    )


def _two_noise_problem(grid):
    return WienerBSDEProblem(
        k=1,
        d=2,
        driver=lambda t, w, y, z: 0.2 * y + 0.3 * z[:, 0] - 0.1 * z[:, 1],
        coeffs=coeffs_on(grid, 0.2, 0.3, eps=0.05),
        terminal=TerminalRule(kind="fixed"),
        payoff=lambda tau, w: w[..., 0] ** 2 + np.sin(w[..., 1]),
    )


def test_direct_uniform_problem_matches_reference():
    g = grid_uniform(1.0, 41)
    prob = linear_problem(g, 0.3, 0.4, (1.0, 2.0, 1.0))
    W = simulate_brownian(g, 2000, 1, seed=3)
    assert_agree(solve_picard_oracle(prob, W), reference_solve_picard_oracle(prob, W))
    for basis in ("poly", "bins"):
        assert_agree(solve_lsmc(prob, W, basis=basis), reference_solve_lsmc(prob, W, basis=basis))


def test_transformed_problem_matches_reference():
    g = grid_uniform(1.0, 41)
    prob = _time_varying_problem(g)
    # a uniform target grid: the snapped source steps, hence the variances, vary
    clock = build_phi(prob.coeffs, IncreasingProcess.identity(g))
    tp = transform_driver(prob, clock, W=simulate_brownian(grid_uniform(1.0, 401), 2000, 1, seed=4))
    assert np.ptp(tp.state_var) > 0.01
    assert_agree(solve_picard_oracle(tp), reference_solve_picard_oracle(tp))
    assert_agree(solve_lsmc(tp), reference_solve_lsmc(tp))


def test_first_exit_problem_matches_reference():
    g = grid_uniform(1.0, 41)
    prob = _exit_problem(g)
    W = simulate_brownian(g, 2000, 1, seed=5)
    fast = solve_picard_oracle(prob, W)
    xs = fast.metadata["state_values"][0]
    assert np.any(xs <= -0.6) and np.any(xs >= 0.8)  # absorbed grid nodes
    assert np.any(fast.stop_idx < g.n_nodes - 1)
    assert_agree(fast, reference_solve_picard_oracle(prob, W))
    for basis in ("poly", "bins"):
        assert_agree(solve_lsmc(prob, W, basis=basis), reference_solve_lsmc(prob, W, basis=basis))


@pytest.mark.parametrize("basis", ["poly", "bins"])
def test_two_noises_match_reference(basis):
    g = grid_uniform(1.0, 21)
    prob = _two_noise_problem(g)
    W = simulate_brownian(g, 3000, 2, seed=6)
    assert_agree(solve_lsmc(prob, W, basis=basis), reference_solve_lsmc(prob, W, basis=basis))


def test_rank_deficient_design_matches_reference():
    # no noise over the first three steps: the state is constant on nodes 1-3
    g = grid_uniform(1.0, 21)
    prob = linear_problem(g, 0.3, 0.4, (1.0, 2.0, 1.0))
    inc = simulate_brownian(g, 1000, 1, seed=7).increments.copy()
    inc[:, :3, :] = 0.0
    W = BrownianEnsemble(grid=g, increments=inc, seed=7)
    fast, ref = solve_lsmc(prob, W), reference_solve_lsmc(prob, W)
    assert fast.metadata["rank_deficient"]
    assert_agree(fast, ref)


def _clear_oracle_memo():
    wiener._identity_spline.cache_clear()
    wiener._grid_operator.cache_clear()


def test_oracle_builds_one_spline_per_solve(monkeypatch):
    built, calls, operators = [], [], []

    class CountingSpline(wiener.CubicSpline):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

        def __call__(self, *args, **kwargs):
            calls.append(1)
            return super().__call__(*args, **kwargs)

    def counting_operator(*args):
        operators.append(1)
        return build(*args)

    build = wiener._expectation_operator
    monkeypatch.setattr(wiener, "CubicSpline", CountingSpline)
    monkeypatch.setattr(wiener, "_expectation_operator", counting_operator)
    _clear_oracle_memo()
    g = grid_uniform(1.0, 51)
    prob = linear_problem(g, 0.3, 0.4, (1.0, 2.0, 1.0))
    W = simulate_brownian(g, 100, 1, seed=8)
    sol = solve_picard_oracle(prob, W, iterations=8)
    assert len(sol.metadata["iterate_distances"]) == 8
    assert len(built) == 1
    assert len(operators) == len(set(g.steps.tolist()))
    # a second solve on the same state grid reuses both
    built.clear()
    operators.clear()
    again = solve_picard_oracle(prob, W, iterations=8)
    assert len(built) == 0
    assert len(operators) == 0
    assert len(calls) == 0
    np.testing.assert_array_equal(again.Y, sol.Y)
    np.testing.assert_array_equal(again.Z, sol.Z)


def test_memoised_operator_is_a_read_only_fresh_build():
    _clear_oracle_memo()
    n_space, span, n_quad, var = 61, 3.0, 21, 0.04
    cached = wiener._grid_operator(n_space, span, n_quad, var)
    assert wiener._grid_operator(n_space, span, n_quad, var) is cached
    xs = np.linspace(-span, span, n_space)
    coef = CubicSpline(xs, np.eye(n_space), axis=0).c.reshape(4 * (n_space - 1), n_space)
    gh_x, gh_w = np.polynomial.hermite_e.hermegauss(n_quad)
    fresh = wiener._expectation_operator(xs, coef, gh_x, gh_w / math.sqrt(2.0 * math.pi), var)
    np.testing.assert_array_equal(cached, fresh)
    cached_coef, cached_grad = wiener._identity_spline(n_space, span)
    np.testing.assert_array_equal(cached_coef, coef)
    np.testing.assert_array_equal(cached_grad, np.gradient(np.eye(n_space), xs, axis=0))
    for a in (cached, cached_coef, cached_grad):
        assert not a.flags.writeable


def test_solve_with_more_variances_than_the_memo_keeps_is_unchanged():
    # steps that grow along the grid: every step variance differs
    g = TimeGrid(np.linspace(0.0, 1.0, 41) ** 1.5)
    prob = linear_problem(g, 0.3, 0.4, (1.0, 2.0, 1.0))
    W = simulate_brownian(g, 200, 1, seed=9)
    bound = wiener._grid_operator.cache_info().maxsize
    assert len(set(g.steps.tolist())) > bound
    _clear_oracle_memo()
    cold = solve_picard_oracle(prob, W, iterations=4)
    assert wiener._grid_operator.cache_info().currsize == bound
    assert wiener._grid_operator.cache_info().misses == bound
    warm = solve_picard_oracle(prob, W, iterations=4)
    # the memo keeps its operators for the next solve instead of churning
    assert wiener._grid_operator.cache_info().currsize == bound
    assert wiener._grid_operator.cache_info().hits == bound
    assert wiener._grid_operator.cache_info().misses == bound
    np.testing.assert_array_equal(warm.Y, cold.Y)
    np.testing.assert_array_equal(warm.Z, cold.Z)
    np.testing.assert_array_equal(warm.metadata["state_values"][1], cold.metadata["state_values"][1])
    assert warm.metadata["iterate_distances"] == cold.metadata["iterate_distances"]


def _operator_by_evaluation(xs, gh_x, gh_w, var):
    # the spline of the identity evaluated at each clipped quadrature shift
    spline = CubicSpline(xs, np.eye(xs.size), axis=0)
    shift = np.clip(xs[:, None] + math.sqrt(var) * gh_x[None, :], xs[0], xs[-1])
    return sum(w * spline(shift[:, q]) for q, w in enumerate(gh_w))


@pytest.mark.parametrize(
    "n_quad, var, case",
    [
        (21, 4.0, "clipped at both ends"),
        (20, 0.01, "even rule"),
        (21, 0.01, "middle node on every breakpoint"),
    ],
)
def test_expectation_operator_matches_spline_evaluation(n_quad, var, case):
    xs = np.linspace(-3.0, 3.0, 61)
    gh_x, gh_w = np.polynomial.hermite_e.hermegauss(n_quad)
    gh_w = gh_w / math.sqrt(2.0 * math.pi)
    shift = xs[:, None] + math.sqrt(var) * gh_x[None, :]
    if case == "clipped at both ends":
        assert np.any(shift < xs[0]) and np.any(shift > xs[-1])
    elif case == "even rule":
        assert not np.any(np.isin(shift, xs))
    else:
        # hermegauss puts the middle node of an odd rule at exactly 0
        np.testing.assert_array_equal(shift[:, n_quad // 2], xs)
    coef = CubicSpline(xs, np.eye(xs.size), axis=0).c.reshape(4 * (xs.size - 1), xs.size)
    fast = wiener._expectation_operator(xs, coef, gh_x, gh_w, var)
    ref = _operator_by_evaluation(xs, gh_x, gh_w, var)
    assert np.max(np.abs(fast - ref)) <= 1e-13 * np.max(np.abs(ref))
