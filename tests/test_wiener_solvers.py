import math
from dataclasses import dataclass

import numpy as np
import pytest

from tcbsde.errors import (
    InvariantError,
    PreconditionError,
    SchemeError,
    StructuralError,
    UnsupportedError,
)
from tcbsde.timechange import IncreasingProcess, TimeChangeMap, TimeGrid, build_phi
from tcbsde.wiener import (
    PolynomialPayoff,
    SolutionEnsemble,
    TerminalRule,
    WienerBSDEProblem,
    bounded_solution_check,
    closed_form_linear,
    comparison_experiment,
    map_solution,
    simulate_brownian,
    solve_lsmc,
    solve_picard_oracle,
    stability_gap,
    transform_driver,
)
from util import coeffs_on, grid_uniform, linear_problem, path


def martingale_problem(grid, payoff_coeffs):
    return linear_problem(grid, 0.0, 0.0, payoff_coeffs, eps=0.05)


# ---------------------------------------------------------------------------
# solve_lsmc
# ---------------------------------------------------------------------------


def test_lsmc_zero_driver_terminal_w():
    # martingale property: Y_0 = E[W_T] = 0 within 3 SE
    g = grid_uniform(1.0, 51)
    prob = martingale_problem(g, (0.0, 1.0))
    W = simulate_brownian(g, 10_000, 1, seed=21)
    sol = solve_lsmc(prob, W)
    assert abs(sol.y0()) <= 3.0 * sol.y0_se()


def test_lsmc_zero_driver_terminal_w_squared():
    # Gaussian moment oracle: E[W_1^2] = 1
    g = grid_uniform(1.0, 51)
    prob = martingale_problem(g, (0.0, 0.0, 1.0))
    W = simulate_brownian(g, 10_000, 1, seed=22)
    sol = solve_lsmc(prob, W)
    assert abs(sol.y0() - 1.0) <= 3.0 * sol.y0_se()


def test_lsmc_contraction_guard():
    g = grid_uniform(1.0, 6)  # step 0.2, alpha^2 = 9 -> 1.8 >= 1
    prob = linear_problem(g, 9.0, 0.0, (1.0,), eps=1.0)
    W = simulate_brownian(g, 100, 1, seed=0)
    with pytest.raises(SchemeError):
        solve_lsmc(prob, W)


@pytest.mark.parametrize("nodes", [2, 11])
def test_lsmc_rejects_an_unknown_basis_on_entry(nodes):
    # on 2 nodes no step regresses, so only an entry check sees the basis
    g = grid_uniform(0.1, nodes)
    prob = linear_problem(g, 0.1, 0.0, (1.01,))
    W = simulate_brownian(g, 20, 1, seed=0)
    with pytest.raises(PreconditionError, match="unknown basis 'cubic'"):
        solve_lsmc(prob, W, basis="cubic")


def test_lsmc_terminal_values_match_payoff():
    g = grid_uniform(1.0, 21)
    prob = martingale_problem(g, (0.5, 2.0))
    W = simulate_brownian(g, 500, 1, seed=5)
    sol = solve_lsmc(prob, W)
    want = 0.5 + 2.0 * W.values[:, -1, 0]
    assert np.allclose(sol.Y[:, -1], want)


def test_lsmc_first_exit_freezes_payoff():
    g = grid_uniform(1.0, 101)
    prob = WienerBSDEProblem(
        k=1,
        d=1,
        driver=lambda t, w, y, z: np.zeros(y.shape),
        coeffs=coeffs_on(g, 0.0, 0.0, eps=0.05),
        terminal=TerminalRule(kind="first_exit", coord=0, lower=-0.5, upper=0.5),
        payoff=lambda tau, w: np.ones(tau.shape),
    )
    W = simulate_brownian(g, 2000, 1, seed=9)
    sol = solve_lsmc(prob, W)
    # constant payoff with zero driver: conditional expectations are all 1
    assert np.allclose(sol.Y, 1.0, atol=1e-10)
    assert sol.metadata["truncated_fraction"] < 1.0


@pytest.mark.parametrize(
    "kind, coord, lower, upper, match",
    [
        ("fixed", 0, -0.5, 0.5, "takes no coordinate or bounds"),
        ("first_exit", 0, 0.5, -0.5, "need lower < upper"),
        ("first_exit", 0, math.nan, 0.5, "need lower < upper"),
        ("first_exit", -1, -0.5, 0.5, "non-negative integer"),
        ("exit", 0, -0.5, 0.5, "unknown terminal rule"),
        ("first_exit", True, -0.5, 0.5, "non-negative integer"),
    ],
    ids=["fixed with bounds", "crossed bounds", "NaN bound", "negative coord", "unknown kind", "bool coord"],
)
def test_terminal_rule_rejects_a_rule_that_solves_another_problem(kind, coord, lower, upper, match):
    # each would solve another problem: bounds ignored, every path stopped
    # at node 0, one side dropped, the last coordinate watched, or an error
    # only once solved
    with pytest.raises(InvariantError, match=match):
        TerminalRule(kind=kind, coord=coord, lower=lower, upper=upper)


def test_terminal_rule_watching_a_missing_coordinate_fails_at_the_solve():
    # a named error, not an IndexError from the state's last axis
    g = grid_uniform(1.0, 21)
    prob = WienerBSDEProblem(
        k=1, d=1, driver=lambda t, w, y, z: 0.1 * y, coeffs=coeffs_on(g, 0.1, 0.0, eps=0.05),
        terminal=TerminalRule(kind="first_exit", coord=3, lower=-0.5, upper=0.5),
        payoff=lambda tau, w: np.ones(tau.shape),
    )
    with pytest.raises(StructuralError, match="watches coordinate 3 of 1"):
        solve_lsmc(prob, simulate_brownian(g, 2000, 1, seed=9))


# ---------------------------------------------------------------------------
# solve_picard_oracle
# ---------------------------------------------------------------------------


def test_picard_zero_driver_converges_in_one_iteration():
    g = grid_uniform(1.0, 26)
    prob = martingale_problem(g, (0.0, 0.0, 1.0))
    W = simulate_brownian(g, 500, 1, seed=1)
    sol = solve_picard_oracle(prob, W, iterations=3)
    d = sol.metadata["iterate_distances"]
    assert d[1] <= 1e-12  # nothing moves after the first sweep
    assert not sol.metadata["diverging"]
    assert abs(sol.y0() - 1.0) <= 0.05


def test_picard_contraction_rate():
    # f = -0.1 y, xi = 1: sweep-to-sweep distance contracts like 0.1 * horizon
    g = grid_uniform(1.0, 26)
    prob = linear_problem(g, 0.1, 0.0, (1.0,), eps=0.05)

    def driver(t, w, y, z):
        return -0.1 * y

    from dataclasses import replace

    prob = replace(prob, driver=driver)
    W = simulate_brownian(g, 200, 1, seed=2)
    sol = solve_picard_oracle(prob, W, iterations=6)
    d = sol.metadata["iterate_distances"]
    ratios = [d[i + 1] / d[i] for i in range(1, 4) if d[i] > 1e-14]
    assert all(r <= 0.1 * g.t_end + 1e-9 for r in ratios)
    # closed form: Y_0 = e^{-0.1}
    assert sol.y0() == pytest.approx(math.exp(-0.1), abs=2e-3)


def test_picard_flags_growing_iterate_distances():
    # f = 10 y on 51 nodes passes the guard (dt * r = 0.2), but the sweeps
    # add one more power of 10 (T - t) each time, so the distances grow
    g = grid_uniform(1.0, 51)
    prob = linear_problem(g, 10.0, 0.0, (1.0,), eps=0.05)
    W = simulate_brownian(g, 50, 1, seed=0)
    sol = solve_picard_oracle(prob, W, iterations=8)
    d = sol.metadata["iterate_distances"]
    assert all(b > a for a, b in zip(d, d[1:]))
    assert d[:3] == pytest.approx([1.0, 10.0, 51.0])
    assert sol.metadata["diverging"]


def test_picard_matches_lsmc_on_linear_problem():
    g = grid_uniform(1.0, 41)
    prob = linear_problem(g, 0.2, 0.3, (1.0, 1.0), eps=0.05)
    W = simulate_brownian(g, 2000, 1, seed=3)
    a = solve_lsmc(prob, W)
    b = solve_picard_oracle(prob, W, iterations=8)
    assert abs(a.y0() - b.y0()) <= 0.02 * max(1.0, abs(b.y0()))


def test_picard_rejects_multidim():
    g = grid_uniform(1.0, 11)
    prob = linear_problem(g, 0.1, 0.0, (1.0,), eps=0.05)
    from dataclasses import replace

    prob = replace(prob, d=2)
    W = simulate_brownian(g, 50, 2, seed=0)
    with pytest.raises(UnsupportedError):
        solve_picard_oracle(prob, W)


# ---------------------------------------------------------------------------
# closed_form_linear: the Picard oracle pins the sign convention first
# ---------------------------------------------------------------------------


def test_closed_form_trivial_cases():
    g = grid_uniform(1.0, 101)
    r0, u0 = path(g, 0.0), path(g, 0.0)
    assert closed_form_linear(r0, u0, PolynomialPayoff((1.0,)), 1.0) == pytest.approx(1.0)
    assert closed_form_linear(r0, u0, PolynomialPayoff((0.0, 0.0, 1.0)), 1.0) == pytest.approx(1.0)


def test_closed_form_integrates_up_to_the_horizon():
    # the integrals stopped at the last node at or below T: e^0.5 at T = 0.55
    g = grid_uniform(1.0, 11)
    one, zero = path(g, 1.0), path(g, 0.0)
    assert closed_form_linear(one, zero, PolynomialPayoff((1.0,)), 0.55) == pytest.approx(math.exp(0.55), rel=1e-14)
    # r = 1 + t and u = 2 t: int_0^T r = T + T^2 / 2, and E[G^2] = (T^2)^2 + T for G ~ N(-T^2, T)
    r, u = path(g, 1.0 + g.nodes), path(g, 2.0 * g.nodes)
    T = 0.37
    want = math.exp(T + T * T / 2.0) * (T**4 + T)
    assert closed_form_linear(r, u, PolynomialPayoff((0.0, 0.0, 1.0)), T) == pytest.approx(want, rel=1e-14)
    # at a node, and within 1e-12 of it, no point is added: the trapezoid over the nodes
    for T in (1.0, 1.0 - 5e-13, 0.5):
        upto = g.nodes <= T + 1e-12
        rr = np.trapezoid(r.values[upto], g.nodes[upto])
        uu = np.trapezoid(u.values[upto], g.nodes[upto])
        want = math.exp(rr) * (uu * uu + T)
        assert closed_form_linear(r, u, PolynomialPayoff((0.0, 0.0, 1.0)), T) == want


@pytest.mark.parametrize("T", [-1.0, math.nan], ids=["negative", "nan"])
def test_closed_form_rejects_a_negative_or_nan_horizon(T):
    # unchecked, -1 gave 1.0 for payoff 1 and -1.0 for x^2, and NaN gave 1.0
    g = grid_uniform(1.0, 11)
    with pytest.raises(PreconditionError, match="horizon must be non-negative"):
        closed_form_linear(path(g, 1.0), path(g, 0.0), PolynomialPayoff((0.0, 0.0, 1.0)), T)


def test_closed_form_sign_convention_vs_picard():
    # r = 0.1, u = 0, xi = 1: the added-martingale convention discounts with
    # exp(+0.1); the fixed-point oracle must agree before the closed form is
    # trusted anywhere else.
    g = grid_uniform(1.0, 41)
    prob = linear_problem(g, 0.1, 0.0, (1.0,), eps=0.05)
    W = simulate_brownian(g, 200, 1, seed=4)
    picard = solve_picard_oracle(prob, W, iterations=8)
    exact = closed_form_linear(prob.coeffs.r, prob.coeffs.u, PolynomialPayoff((1.0,)), 1.0)
    assert exact == pytest.approx(math.exp(0.1))
    assert picard.y0() == pytest.approx(exact, rel=5e-3)


def test_closed_form_z_sign_vs_picard():
    # u != 0 with an asymmetric payoff separates the sign of Z: under the
    # convention here W_T ~ N(-int u, T) after the measure shift.
    g = grid_uniform(1.0, 41)
    prob = linear_problem(g, 0.1, 0.3, (1.0, 2.0, 1.0), eps=0.05)
    W = simulate_brownian(g, 200, 1, seed=6)
    picard = solve_picard_oracle(prob, W, iterations=10)
    exact = closed_form_linear(
        prob.coeffs.r, prob.coeffs.u, PolynomialPayoff((1.0, 2.0, 1.0)), 1.0
    )
    want = math.exp(0.1) * ((1.0 - 0.3) ** 2 + 1.0)  # e^{int r} E[(G + 1)^2], G ~ N(-0.3, 1)
    assert exact == pytest.approx(want, rel=1e-12)
    assert picard.y0() == pytest.approx(exact, rel=1e-2)


def test_lsmc_vs_closed_form_linear():
    g = grid_uniform(1.0, 101)
    prob = linear_problem(g, 0.1, 0.3, (1.0, 2.0, 1.0), eps=0.05)
    W = simulate_brownian(g, 20_000, 1, seed=7)
    sol = solve_lsmc(prob, W)
    exact = closed_form_linear(
        prob.coeffs.r, prob.coeffs.u, PolynomialPayoff((1.0, 2.0, 1.0)), 1.0
    )
    assert abs(sol.y0() - exact) <= 0.05 * abs(exact)


def test_closed_form_rejects_unsupported_payoff():
    g = grid_uniform(1.0, 11)
    with pytest.raises(UnsupportedError):
        closed_form_linear(path(g, 0.0), path(g, 0.0), lambda tau, w: w, 1.0)


# ---------------------------------------------------------------------------
# map_solution
# ---------------------------------------------------------------------------


def test_map_solution_identity_clock():
    g = grid_uniform(1.0, 51)
    prob = martingale_problem(g, (0.0, 1.0))
    W = simulate_brownian(g, 300, 1, seed=8)
    sol = solve_lsmc(prob, W)
    out = map_solution(sol, TimeChangeMap.identity(g), "from_transformed")
    assert np.allclose(out.Y, sol.Y)
    assert np.allclose(out.Z, sol.Z)


def test_map_solution_roundtrip():
    g = grid_uniform(1.0, 201)
    clock = build_phi(coeffs_on(g, 1.5 + g.nodes, 0.0, eps=0.5), IncreasingProcess.identity(g))
    tgt = clock.target_grid
    prob = martingale_problem(tgt, (0.0, 1.0))
    W = simulate_brownian(tgt, 100, 1, seed=9)
    sol = solve_lsmc(prob, W)
    back = map_solution(map_solution(sol, clock, "from_transformed"), clock, "to_transformed")
    tol = 12.0 * max(g.max_step, tgt.max_step)
    assert float(np.max(np.abs(back.Y - sol.Y))) <= tol * max(1.0, float(np.max(np.abs(sol.Y))))


def test_map_solution_to_transformed_rejects_a_grid_short_of_the_clock_range():
    # a solution on the first 11 of 21 nodes ends at 0.5, and the clock's
    # inverse reaches 1.0: the target nodes past 0.5 have nothing to read
    g = grid_uniform(1.0, 21)
    prob = linear_problem(g, 0.5 + g.nodes, 0.3, (0.0, 1.0), eps=0.05)
    clock = build_phi(prob.coeffs, IncreasingProcess.identity(g), target="image")
    short = grid_uniform(0.5, 11)
    sol = solve_lsmc(martingale_problem(short, (0.0, 1.0)), simulate_brownian(short, 200, 1, seed=1))
    with pytest.raises(StructuralError, match="does not cover the clock range"):
        map_solution(sol, clock, "to_transformed")
    full = solve_lsmc(martingale_problem(g, (0.0, 1.0)), simulate_brownian(g, 200, 1, seed=1))
    assert map_solution(full, clock, "to_transformed").grid is clock.target_grid


def test_transform_solve_map_equivalence():
    # time-varying r: solve directly and through the clock; the two value
    # processes agree after mapping back (the equivalence exercised end to end)
    from tcbsde.wiener import restrict_brownian

    g = grid_uniform(1.0, 51)
    fine = grid_uniform(1.0, 1001)
    prob = linear_problem(g, 0.1 * (1.0 + g.nodes), 0.0, (0.0, 0.0, 1.0), eps=0.05)
    W_fine = simulate_brownian(fine, 2000, 1, seed=10)
    W = restrict_brownian(W_fine, g)
    direct = solve_picard_oracle(prob, W, iterations=8)

    clock = build_phi(prob.coeffs, IncreasingProcess.identity(g), target="image")
    tp = transform_driver(prob, clock, W=W_fine)
    tilde = solve_picard_oracle(tp, iterations=8)
    mapped = map_solution(tilde, clock, "from_transformed")
    scale = float(np.max(np.abs(direct.Y)))
    gap = float(np.max(np.abs(direct.Y - mapped.Y)))
    assert gap <= 0.03 * scale


@pytest.mark.parametrize("solve", [solve_lsmc, solve_picard_oracle], ids=["lsmc", "oracle"])
def test_transformed_problem_is_solved_on_its_own_noise_only(solve):
    # a transformed problem's Markov state is the noise it was transformed
    # with: increments from any other ensemble, or an ensemble standing in for
    # the state, would mix two noises, so both are structural errors
    g = grid_uniform(1.0, 21)
    prob = linear_problem(g, 0.5 + g.nodes, 0.3, (0.0, 1.0), eps=0.05)
    clock = build_phi(prob.coeffs, IncreasingProcess.identity(g), target="image")
    W1 = simulate_brownian(g, 500, 1, seed=1)
    other = simulate_brownian(clock.target_grid, 500, 1, seed=2)
    tp = transform_driver(prob, clock, W=W1)
    with pytest.raises(StructuralError, match="noise it carries"):
        solve(tp, other)
    with pytest.raises(StructuralError, match="noise it carries"):
        solve(tp, simulate_brownian(clock.target_grid, 300, 1, seed=2))
    with pytest.raises(StructuralError, match="noise it carries"):
        solve(transform_driver(prob, clock), other)
    with pytest.raises(StructuralError, match="carries no noise"):
        solve(transform_driver(prob, clock))
    own = solve(tp)
    assert own.grid is clock.target_grid and own.paths == 500


# ---------------------------------------------------------------------------
# weighted_norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedNormReport:
    rho: float
    y_weighted: tuple  # (estimate, standard error) of int e^{rho phi} |alpha Y|^2
    z_weighted: tuple  # same for int e^{rho phi} |Z|^2
    sup_weighted: tuple  # same for sup e^{rho phi} |Y|^2
    per_path: dict


def weighted_norms(sol: SolutionEnsemble, clock: TimeChangeMap, rho: float) -> WeightedNormReport:
    """Monte Carlo estimates of the exponentially weighted solution norms."""
    grid = sol.grid
    phi = np.asarray(clock.forward_at(grid.nodes))
    a2 = np.asarray(clock.density_at(grid.nodes))
    w = np.exp(rho * phi)
    dt = grid.steps
    P, n = sol.Y.shape
    alive = np.arange(n)[None, :] < sol.stop_idx[:, None]
    ynorm = np.sum(np.where(alive[:, :-1], (w * a2)[None, :-1] * sol.Y[:, :-1] ** 2, 0.0) * dt, axis=1)
    z2 = np.sum(sol.Z**2, axis=2)
    znorm = np.sum(np.where(alive[:, :-1], w[None, :-1] * z2[:, :-1], 0.0) * dt, axis=1)
    upto = np.arange(n)[None, :] <= sol.stop_idx[:, None]
    supnorm = np.max(np.where(upto, w[None, :] * sol.Y**2, -np.inf), axis=1)

    def stat(v):
        return (float(np.mean(v)), float(np.std(v) / math.sqrt(P)))

    return WeightedNormReport(
        rho=rho,
        y_weighted=stat(ynorm),
        z_weighted=stat(znorm),
        sup_weighted=stat(supnorm),
        per_path={"y": ynorm, "z": znorm, "sup": supnorm},
    )


def _manual_solution(grid, Y, Z, seed=0):
    from tcbsde.wiener import SolutionEnsemble

    P = Y.shape[0]
    return SolutionEnsemble(
        grid=grid,
        Y=Y,
        Z=Z,
        stop_idx=np.full(P, grid.n_nodes - 1, dtype=int),
        scheme="closed-form",
        seed=seed,
    )


def test_weighted_norms_zero_solution():
    g = grid_uniform(1.0, 11)
    sol = _manual_solution(g, np.zeros((5, 11)), np.zeros((5, 11, 1)))
    rep = weighted_norms(sol, TimeChangeMap.identity(g), rho=2.0)
    assert rep.y_weighted[0] == 0.0 and rep.z_weighted[0] == 0.0 and rep.sup_weighted[0] == 0.0


def test_weighted_norms_constant_one():
    # direct integral oracle: int_0^1 e^0 * 1 dt = 1 and sup = 1
    g = grid_uniform(1.0, 11)
    sol = _manual_solution(g, np.ones((4, 11)), np.zeros((4, 11, 1)))
    rep = weighted_norms(sol, TimeChangeMap.identity(g), rho=0.0)
    assert rep.y_weighted[0] == pytest.approx(1.0)
    assert rep.sup_weighted[0] == pytest.approx(1.0)


def test_weighted_norms_monotone_in_rho():
    g = grid_uniform(1.0, 21)
    rng = np.random.default_rng(0)
    Y = rng.normal(size=(50, 21))
    Z = rng.normal(size=(50, 21, 1))
    sol = _manual_solution(g, Y, Z)
    clock = TimeChangeMap.identity(g)
    r3 = weighted_norms(sol, clock, rho=3.0)
    r4 = weighted_norms(sol, clock, rho=4.0)
    assert r4.y_weighted[0] >= r3.y_weighted[0]
    assert r4.z_weighted[0] >= r3.z_weighted[0]
    assert r4.sup_weighted[0] >= r3.sup_weighted[0]


# ---------------------------------------------------------------------------
# stability_gap
# ---------------------------------------------------------------------------


def test_stability_identical_problems():
    g = grid_uniform(1.0, 41)
    prob = linear_problem(g, 0.2, 0.1, (1.0, 1.0), eps=0.05)
    W = simulate_brownian(g, 2000, 1, seed=11)
    rep = stability_gap(prob, prob, W, theta=3.5)
    assert rep.lhs <= 1e-20 and rep.rhs <= 1e-20


def test_stability_requires_theta_above_three():
    g = grid_uniform(1.0, 21)
    prob = linear_problem(g, 0.1, 0.0, (1.0,), eps=0.05)
    W = simulate_brownian(g, 100, 1, seed=0)
    with pytest.raises(PreconditionError):
        stability_gap(prob, prob, W, theta=3.0)


def test_stability_terminal_perturbation():
    from dataclasses import replace

    g = grid_uniform(1.0, 41)
    prob_a = linear_problem(g, 0.1, 0.0, (1.0,), eps=0.05)
    prob_b = replace(prob_a, payoff=PolynomialPayoff((1.1,)))
    W = simulate_brownian(g, 4000, 1, seed=12)
    rep = stability_gap(prob_a, prob_b, W, theta=3.5)
    assert rep.lhs <= rep.rhs


def test_stability_driver_perturbation_scales_quadratically():
    from dataclasses import replace

    g = grid_uniform(1.0, 41)
    prob_a = linear_problem(g, 0.1, 0.0, (1.0,), eps=0.05)

    def shifted(c):
        base = prob_a.driver
        return lambda t, w, y, z: base(t, w, y, z) + c

    prob_b1 = replace(prob_a, driver=shifted(0.05))
    prob_b2 = replace(prob_a, driver=shifted(0.10))
    W = simulate_brownian(g, 2000, 1, seed=13)
    r1 = stability_gap(prob_a, prob_b1, W, theta=3.5)
    r2 = stability_gap(prob_a, prob_b2, W, theta=3.5)
    assert r2.components["driver"] == pytest.approx(4.0 * r1.components["driver"], rel=1e-9)


# ---------------------------------------------------------------------------
# comparison_experiment
# ---------------------------------------------------------------------------


def test_comparison_identical():
    g = grid_uniform(1.0, 31)
    prob = martingale_problem(g, (0.5,))
    W = simulate_brownian(g, 1000, 1, seed=14)
    rep = comparison_experiment(prob, prob, W)
    assert rep.violating_nodes == 0 and rep.min_gap_pathwise == pytest.approx(0.0, abs=1e-12)


def test_comparison_constant_terminals():
    g = grid_uniform(1.0, 31)
    prob_a = martingale_problem(g, (1.0,))
    prob_b = martingale_problem(g, (0.0,))
    W = simulate_brownian(g, 1000, 1, seed=15)
    rep = comparison_experiment(prob_a, prob_b, W)
    assert rep.violating_nodes == 0
    assert np.allclose(rep.node_means, 1.0, atol=1e-10)


def test_comparison_dominated_pair():
    from dataclasses import replace

    g = grid_uniform(1.0, 51)

    def decay(t, w, y, z):
        return -0.1 * y

    def relu_payoff(tau, w):
        return np.maximum(w[..., 0], 0.0)

    base = linear_problem(g, 0.1, 0.0, (0.0,), eps=0.05)
    prob_a = replace(base, driver=decay, payoff=relu_payoff)
    prob_b = replace(base, driver=decay, payoff=lambda tau, w: np.zeros(tau.shape))
    W = simulate_brownian(g, 10_000, 1, seed=16)
    rep = comparison_experiment(prob_a, prob_b, W)
    assert rep.violating_nodes == 0
    # Y_0 is the same on every path, so its gap has no spread at all
    assert rep.node_ses[0] == 0.0


def test_comparison_rejects_undominated():
    g = grid_uniform(1.0, 21)
    prob_a = martingale_problem(g, (0.0,))
    prob_b = martingale_problem(g, (1.0,))
    W = simulate_brownian(g, 100, 1, seed=0)
    with pytest.raises(PreconditionError):
        comparison_experiment(prob_a, prob_b, W)


def test_comparison_rejects_a_driver_dominated_on_part_of_the_box():
    # -y < 0 only where y > 0: about half the probes see it
    from dataclasses import replace

    g = grid_uniform(1.0, 21)
    prob_b = martingale_problem(g, (0.0,))
    prob_a = replace(prob_b, driver=lambda t, w, y, z: -y)
    W = simulate_brownian(g, 100, 1, seed=0)
    with pytest.raises(PreconditionError, match="driver dominance"):
        comparison_experiment(prob_a, prob_b, W)


# ---------------------------------------------------------------------------
# bounded_solution_check
# ---------------------------------------------------------------------------


def _cubic_problem(grid, payoff):
    return WienerBSDEProblem(
        k=1,
        d=1,
        driver=lambda t, w, y, z: -(y**3),
        coeffs=coeffs_on(grid, 0.0, 0.0, eps=0.05),
        terminal=TerminalRule(kind="fixed"),
        payoff=payoff,
    )


def test_bounded_solution_zero_terminal():
    g = grid_uniform(1.0, 51)
    prob = _cubic_problem(g, lambda tau, w: np.zeros(tau.shape))
    W = simulate_brownian(g, 2000, 1, seed=17)
    rep = bounded_solution_check(prob, 1.0, W)
    assert rep.sup_abs_y <= 1e-10


def test_bounded_solution_sign_terminal():
    g = grid_uniform(1.0, 51)
    prob = _cubic_problem(g, lambda tau, w: np.sign(w[..., 0]))
    W = simulate_brownian(g, 8000, 1, seed=18)
    rep = bounded_solution_check(prob, 1.0, W)
    assert rep.sup_abs_y <= 1.0 + 0.02
    # E int |Z|^2 stays bounded along the grid
    assert np.all(np.isfinite(rep.z_accumulation))
    assert rep.z_accumulation[-1] < 10.0


def test_bounded_solution_rejects_nonvanishing_driver():
    g = grid_uniform(1.0, 21)
    prob = _cubic_problem(g, lambda tau, w: np.zeros(tau.shape))
    from dataclasses import replace

    bad = replace(prob, driver=lambda t, w, y, z: 1.0 - y**3)
    W = simulate_brownian(g, 100, 1, seed=0)
    with pytest.raises(PreconditionError):
        bounded_solution_check(bad, 1.0, W)


def test_bounded_solution_rejects_increasing_driver():
    from dataclasses import replace

    g = grid_uniform(1.0, 21)
    prob = _cubic_problem(g, lambda tau, w: np.zeros(tau.shape))
    bad = replace(prob, driver=lambda t, w, y, z: y**3)
    W = simulate_brownian(g, 100, 1, seed=0)
    with pytest.raises(PreconditionError, match="monotone"):
        bounded_solution_check(bad, 1.0, W)
