"""Curated scenario suite: one runnable experiment per verified property.

Every scenario is a pure function of its config (seed included) that fills
the :class:`~tcbsde.harness.ReportBundle` the registry made under its name;
the verdict lines pin the tolerance they were designed against.  Anchors
name the mathematical property being exercised, and the catalog spans all
three numerical modules.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .chain import (
    GammaBalancedDriver,
    MarkovChainModel,
    build_message_problem,
    chain_clock,
    check_gamma_balanced,
    map_chain_solution,
    message_transmission,
    occupancy,
    psi_matrix,
    simulate_chain,
    solve_chain_bsde,
    transform_chain,
    transform_chain_driver,
    transform_chain_problem,
    verify_bound,
)
from .errors import ConfigError
from .harness import ExperimentConfig, ReportBundle, ScenarioSpec, Verdict
from .timechange import (
    LINEAR,
    CoefficientProcesses,
    IncreasingProcess,
    SampledPath,
    TimeChangeMap,
    TimeGrid,
    build_phi,
    normalize_terminal_time,
    substitution_check,
    terminal_clock,
    terminal_clock_derivative,
    time_change_path,
)
from .wiener import (
    PolynomialPayoff,
    TerminalRule,
    WienerBSDEProblem,
    bounded_solution_check,
    check_uniform_lipschitz,
    closed_form_linear,
    comparison_experiment,
    map_solution,
    restrict_brownian,
    simulate_brownian,
    solve_lsmc,
    solve_picard_oracle,
    stability_gap,
    transform_brownian,
    transform_driver,
)

REGISTRY: dict[str, ScenarioSpec] = {}


def _scenario(name, description, anchor, module, budget_s):
    def wrap(fn):
        REGISTRY[name] = ScenarioSpec(
            name=name, description=description, anchor=anchor, module=module, fn=fn,
            budget_s=budget_s,
        )
        return fn

    return wrap


def _coeffs(grid, r_values, u_values, eps):
    r = SampledPath(grid, np.broadcast_to(np.asarray(r_values, dtype=float), (grid.n_nodes,)).copy(), LINEAR)
    u = SampledPath(grid, np.broadcast_to(np.asarray(u_values, dtype=float), (grid.n_nodes,)).copy(), LINEAR)
    return CoefficientProcesses.lipschitz(r, u, eps=eps)


def _linear_problem(grid, r_values, u_values, payoff_coeffs, eps=0.05):
    coeffs = _coeffs(grid, r_values, u_values, eps)

    def driver(t, w, y, z):
        return float(coeffs.r.at(t)) * y + float(coeffs.u.at(t)) * z[:, 0]

    return WienerBSDEProblem(
        k=1, d=1, driver=driver, coeffs=coeffs,
        terminal=TerminalRule(kind="fixed"), payoff=PolynomialPayoff(tuple(payoff_coeffs)),
    )


def _oracle_not_diverging(*solutions):
    diverging = any(sol.metadata["diverging"] for sol in solutions)
    return Verdict.check("oracle_not_diverging", float(diverging), 0.0)


# ---------------------------------------------------------------------------
# timechange scenarios
# ---------------------------------------------------------------------------


@_scenario(
    "identity-clock-roundtrip",
    "identity clock leaves paths, drivers and solutions untouched",
    "round trip of the time change and its inverse",
    "timechange",
    budget_s=5.0,
)
def identity_clock_roundtrip(cfg: ExperimentConfig, b: ReportBundle) -> None:
    grid = TimeGrid.uniform(1.0, cfg.param("nodes", 201))
    clock = TimeChangeMap.identity(grid)
    X = SampledPath(grid, np.sin(3.0 * grid.nodes), LINEAR)
    fwd = time_change_path(X, clock, "inverse")
    back = time_change_path(fwd, clock, "forward")
    b.verdicts.append(
        Verdict.check("path_roundtrip", float(np.max(np.abs(back.values - X.values))), 1e-12)
    )
    t = np.linspace(0.0, 1.0, 21)
    b.verdicts.append(
        Verdict.check(
            "inverse_composition",
            float(np.max(np.abs(clock.inverse_at(clock.forward_at(t)) - t))),
            1e-12,
        )
    )
    b.add_table("roundtrip", ["t", "original", "roundtrip"],
                [[tt, x, y] for tt, x, y in zip(grid.nodes, X.values, back.values)])


@_scenario(
    "quadratic-clock-inverse",
    "clock density 1 + 2s against the quadratic-formula inverse",
    "generalized inverse of an accumulated clock",
    "timechange",
    budget_s=1.0,
)
def quadratic_clock_inverse(cfg: ExperimentConfig, b: ReportBundle) -> None:
    step = cfg.param("step", 1e-3)
    t_end = cfg.param("t_end", 2.0)
    if step <= 0:
        raise ConfigError(f"step must be positive, got {step}")
    grid = TimeGrid.uniform(t_end, int(round(t_end / step)) + 1)
    coeffs = _coeffs(grid, 1.0 + 2.0 * grid.nodes, 0.0, eps=0.5)
    clock = build_phi(coeffs, IncreasingProcess.identity(grid))
    horizon = float(clock.forward.values[-1])
    probes = np.linspace(0.0, 0.99 * horizon, 20)
    computed = np.asarray(clock.inverse_at(probes))
    exact = (-1.0 + np.sqrt(1.0 + 4.0 * probes)) / 2.0
    err = float(np.max(np.abs(computed - exact)))
    b.estimates["max_inverse_error"] = err
    b.verdicts.append(Verdict.check("inverse_matches_quadratic_formula", err, 10.0 * step))
    b.add_table("probes", ["s", "computed", "exact"],
                [[s, c, e] for s, c, e in zip(probes, computed, exact)])


@_scenario(
    "substitution-refinement",
    "integral substitution residual is pure quadrature error and refines away",
    "substitution identity for time-changed integrals",
    "timechange",
    budget_s=30.0,
)
def substitution_refinement(cfg: ExperimentConfig, b: ReportBundle) -> None:

    def residual(n):
        g = TimeGrid.uniform(1.0, n)
        clock = build_phi(_coeffs(g, 2.0, 0.0, eps=1.0), IncreasingProcess.identity(g))
        h = SampledPath(g, g.nodes.copy(), LINEAR)
        X = SampledPath(g, g.nodes.copy(), LINEAR)
        return substitution_check(h, X, clock)

    r_coarse, r_mid, r_fine = residual(501), residual(1001), residual(2001)
    b.add_table("residuals", ["nodes", "residual"],
                [[501, r_coarse], [1001, r_mid], [2001, r_fine]])
    b.verdicts.append(Verdict.check("residual_linear_case", r_mid, 5e-3))
    b.verdicts.append(Verdict.check("refinement_contracts", r_fine, r_coarse))
    g = TimeGrid.uniform(1.0, 101)
    clock = build_phi(_coeffs(g, 1.0 + g.nodes, 0.0, eps=0.5), IncreasingProcess.identity(g))
    ones = SampledPath(g, np.ones(101), LINEAR)
    vpath = SampledPath(g, g.nodes.copy(), LINEAR)
    b.verdicts.append(
        Verdict.check("telescoping_exact", substitution_check(ones, vpath, clock), 1e-12)
    )


@_scenario(
    "terminal-time-normalization",
    "finite horizons squashed strictly below 1 with the documented derivative",
    "horizon-squashing clock and its inverse derivative",
    "timechange",
    budget_s=5.0,
)
def terminal_time_normalization(cfg: ExperimentConfig, b: ReportBundle) -> None:
    m1 = normalize_terminal_time(1.0)
    b.verdicts.append(Verdict.check("horizon_tau_1", abs(float(m1.forward.values[-1]) - 0.5), 1e-12))
    b.verdicts.append(Verdict.check("inverse_at_half", abs(float(m1.inverse_at(0.5)) - 1.0), 1e-9))
    m3 = normalize_terminal_time(3.0)
    b.verdicts.append(
        Verdict.check("derivative_is_squared_horizon_factor",
                      abs(terminal_clock_derivative(0.75) - 16.0), 1e-12)
    )
    b.verdicts.append(Verdict.check("horizon_tau_0", terminal_clock(0.0, 0.0), 0.0))
    rng = np.random.default_rng(cfg.seed)
    taus = rng.uniform(0.0, 50.0, size=200)
    ts = rng.uniform(0.0, 200.0, size=200)
    vals = np.array([terminal_clock(t, tau) for t, tau in zip(ts, taus)])
    b.verdicts.append(Verdict.check("always_below_one", float(np.max(vals)), 1.0 - 1e-12))
    b.add_table("squash", ["tau", "horizon"],
                [[tau, terminal_clock(tau, tau)] for tau in (0.0, 0.5, 1.0, 3.0, 10.0)])


# ---------------------------------------------------------------------------
# wiener scenarios
# ---------------------------------------------------------------------------


@_scenario(
    "transformed-driver-lipschitz",
    "randomized time-varying drivers probe at constant 1 after the transform",
    "uniform Lipschitz bound of the transformed driver",
    "wiener",
    budget_s=10.0,
)
def transformed_driver_lipschitz(cfg: ExperimentConfig, b: ReportBundle) -> None:
    rng = np.random.default_rng(cfg.seed)
    n_probes = cfg.param("probes", 10_000)
    grid = TimeGrid.uniform(1.0, 301)
    rows = []
    worst_transformed = 0.0
    best_raw = 0.0
    for i in range(5):
        r_scale = 25.0 if i == 0 else float(rng.uniform(1.0, 25.0))
        a = rng.uniform(0.2, 1.0, size=3)
        r_vals = r_scale * (a[0] + a[1] * grid.nodes + a[2] * grid.nodes**2) / float(a.sum())
        u_scale = math.sqrt(float(rng.uniform(1.0, 25.0)))
        u_vals = u_scale * (0.4 + 0.6 * grid.nodes)
        prob = _linear_problem(grid, r_vals, u_vals, (1.0,), eps=0.5)
        clock = build_phi(prob.coeffs, IncreasingProcess.identity(grid))
        tp = transform_driver(prob, clock)
        horizon = float(clock.forward.values[-1])
        ratio_t = check_uniform_lipschitz(
            tp.problem.driver, n_probes, 3.0, t_range=(0.0, horizon), seed=cfg.seed + i
        )
        ratio_raw = check_uniform_lipschitz(
            prob.driver, n_probes, 3.0, t_range=(0.0, 1.0), seed=cfg.seed + i
        )
        worst_transformed = max(worst_transformed, ratio_t)
        best_raw = max(best_raw, ratio_raw)
        rows.append([i, float(np.max(prob.coeffs.alpha_sq.values)), ratio_t, ratio_raw])
    b.add_table("drivers", ["driver", "max_alpha_sq", "transformed_ratio", "raw_ratio"], rows)
    b.estimates["worst_transformed_ratio"] = worst_transformed
    b.verdicts.append(Verdict.check("transformed_ratio", worst_transformed, 1.0 + 1e-6))
    b.verdicts.append(Verdict.check("raw_ratio_exceeds", best_raw, 1.5, op=">="))


@_scenario(
    "brownian-variance",
    "rescaled time-changed noise has unit variance at the horizon",
    "martingale characterization of the transformed noise",
    "wiener",
    budget_s=30.0,
)
def brownian_variance(cfg: ExperimentConfig, b: ReportBundle) -> None:
    P = cfg.paths or 10_000
    src = TimeGrid.uniform(1.0, cfg.param("source_nodes", 1001))
    W = simulate_brownian(src, P, 1, cfg.seed)
    clock = build_phi(
        _coeffs(src, 1.0 + 2.0 * src.nodes, 0.0, eps=0.5),
        IncreasingProcess.identity(src),
        target=TimeGrid.uniform(1.0, 101),
    )
    out = transform_brownian(W, clock)
    w1 = np.sum(out.increments[:, :, 0], axis=1)
    var = float(np.var(w1))
    se = var * math.sqrt(2.0 / (P - 1))
    b.estimates["variance"] = var
    b.estimates["variance_se"] = se
    b.verdicts.append(Verdict.check("variance_lower", var, 0.95, op=">="))
    b.verdicts.append(Verdict.check("variance_upper", var, 1.05))
    # reduced over a column-major copy, in which the paths are contiguous
    # whatever the layout of the increments, so the table reads their values only
    step_var = np.var(np.asfortranarray(out.increments[:, :, 0]), axis=0)
    b.add_table("step_variance", ["t", "variance", "step"],
                [[float(t), float(v), float(dt)] for t, v, dt in
                 zip(out.grid.nodes[:-1], step_var, out.grid.steps)])


@_scenario(
    "linear-equivalence",
    "direct solve equals transform, solve, map back on a time-varying linear problem",
    "solution equivalence across the time change",
    "wiener",
    budget_s=120.0,
)
def linear_equivalence(cfg: ExperimentConfig, b: ReportBundle) -> None:
    P = cfg.paths or 2000
    steps = cfg.param("steps", 50)
    g = TimeGrid.uniform(1.0, steps + 1)
    fine = TimeGrid.uniform(1.0, cfg.param("source_nodes", 1001))
    prob = _linear_problem(g, 0.1 * (1.0 + g.nodes), 0.0, (0.0, 0.0, 1.0), eps=0.05)
    W_fine = simulate_brownian(fine, P, 1, cfg.seed)
    W = restrict_brownian(W_fine, g)
    direct = solve_picard_oracle(prob, W, iterations=8)
    clock = build_phi(prob.coeffs, IncreasingProcess.identity(g), target="image")
    tp = transform_driver(prob, clock, W=W_fine)
    stretched = solve_picard_oracle(tp, iterations=8)
    mapped = map_solution(stretched, clock, "from_transformed")
    scale = float(np.max(np.abs(direct.Y)))
    gap = float(np.max(np.abs(direct.Y - mapped.Y)))
    b.estimates["sup_gap_relative"] = gap / scale
    # the image target gives the transformed solve the direct solve's step
    # variances; when they agree bit for bit the two schemes are one scheme,
    # term for term, and sup_gap_relative measures rounding only
    b.metadata["step_variances_identical"] = str(np.array_equal(tp.state_var, W.grid.steps))
    b.verdicts.append(Verdict.check("sup_gap_relative", gap / scale, 0.03))
    b.verdicts.append(_oracle_not_diverging(direct, stretched))
    means_a = direct.Y.mean(axis=0)
    means_b = mapped.Y.mean(axis=0)
    b.add_table("value_means", ["t", "direct", "mapped_back"],
                [[float(t), float(x), float(y)] for t, x, y in zip(g.nodes, means_a, means_b)])


@_scenario(
    "lsmc-vs-closed-form",
    "regression solver against the exact linear value (oracle-validated first)",
    "linear equation closed form under the added-martingale convention",
    "wiener",
    budget_s=120.0,
)
def lsmc_vs_closed_form(cfg: ExperimentConfig, b: ReportBundle) -> None:
    P = cfg.paths or 20_000
    steps = cfg.param("steps", 100)
    g = TimeGrid.uniform(1.0, steps + 1)
    payoff = (1.0, 2.0, 1.0)
    prob = _linear_problem(g, 0.1, 0.3, payoff, eps=0.05)
    exact = closed_form_linear(prob.coeffs.r, prob.coeffs.u, PolynomialPayoff(payoff), 1.0)
    picard = solve_picard_oracle(prob, simulate_brownian(g, 100, 1, cfg.seed + 1), iterations=8)
    b.verdicts.append(
        Verdict.check("closed_form_vs_fixed_point", abs(picard.y0() - exact) / abs(exact), 0.01)
    )
    b.verdicts.append(_oracle_not_diverging(picard))
    sol = solve_lsmc(prob, simulate_brownian(g, P, 1, cfg.seed))
    rel = abs(sol.y0() - exact) / abs(exact)
    b.estimates["y0"] = sol.y0()
    b.estimates["y0_se"] = sol.y0_se()
    b.estimates["exact"] = exact
    b.verdicts.append(Verdict.check("lsmc_relative_error", rel, 0.05))
    b.add_table("values", ["quantity", "value"],
                [["lsmc_y0", sol.y0()], ["picard_y0", picard.y0()], ["exact", exact]])


@_scenario(
    "comparison-order",
    "dominated terminal data keeps the solved values ordered at every node",
    "comparison of solutions under ordered data",
    "wiener",
    budget_s=60.0,
)
def comparison_order(cfg: ExperimentConfig, b: ReportBundle) -> None:
    P = cfg.paths or 10_000
    g = TimeGrid.uniform(1.0, cfg.param("steps", 50) + 1)

    def decay(t, w, y, z):
        return -0.1 * y

    base = _linear_problem(g, 0.1, 0.0, (0.0,), eps=0.05)
    prob_a = replace(base, driver=decay, payoff=lambda tau, w: np.maximum(w[..., 0], 0.0))
    prob_b = replace(base, driver=decay, payoff=lambda tau, w: np.zeros(tau.shape))
    W = simulate_brownian(g, P, 1, cfg.seed)
    rep = comparison_experiment(prob_a, prob_b, W, seed=cfg.seed)
    b.estimates["min_node_mean_gap"] = float(np.min(rep.node_means))
    b.verdicts.append(Verdict.check("violating_nodes", rep.violating_nodes, 0))
    b.verdicts.append(Verdict.check("violation_fraction", rep.violation_fraction, 0.0))
    b.add_table("node_gaps", ["t", "mean_gap", "se"],
                [[float(t), float(m), float(s)] for t, m, s in
                 zip(g.nodes, rep.node_means, rep.node_ses)])


@_scenario(
    "bounded-solution",
    "monotone cubic driver with unit terminal bound keeps the solution inside it",
    "a-priori bound through the z-coefficient clock",
    "wiener",
    budget_s=120.0,
)
def bounded_solution(cfg: ExperimentConfig, b: ReportBundle) -> None:
    P = cfg.paths or 20_000
    g = TimeGrid.uniform(1.0, cfg.param("steps", 100) + 1)
    prob = WienerBSDEProblem(
        k=1, d=1,
        driver=lambda t, w, y, z: -(y**3),
        coeffs=_coeffs(g, 0.0, 0.0, eps=0.05),
        terminal=TerminalRule(kind="fixed"),
        payoff=lambda tau, w: np.sign(w[..., 0]),
    )
    W = simulate_brownian(g, P, 1, cfg.seed)
    tol = 0.02 if cfg.tol is None else cfg.tol
    rep = bounded_solution_check(prob, 1.0, W, tol=tol, seed=cfg.seed)
    b.estimates["sup_abs_y"] = rep.sup_abs_y
    b.verdicts.append(Verdict.check("sup_abs_y", rep.sup_abs_y, 1.0 + tol))
    b.verdicts.append(
        Verdict.check("z_accumulation_finite", float(rep.z_accumulation[-1]), 10.0)
    )
    b.add_table("z_accumulation", ["t", "running_expected_z_sq"],
                [[float(t), float(v)] for t, v in zip(g.nodes[1:], rep.z_accumulation)])


@_scenario(
    "stability-gap",
    "both sides of the perturbation estimate on a terminal-shifted pair",
    "stability of solutions under data perturbations",
    "wiener",
    budget_s=60.0,
)
def stability_gap_scenario(cfg: ExperimentConfig, b: ReportBundle) -> None:
    P = cfg.paths or 4000
    g = TimeGrid.uniform(1.0, cfg.param("steps", 40) + 1)
    prob_a = _linear_problem(g, 0.1, 0.0, (1.0,), eps=0.05)
    prob_b = replace(prob_a, payoff=PolynomialPayoff((1.1,)))
    W = simulate_brownian(g, P, 1, cfg.seed)
    rep = stability_gap(prob_a, prob_b, W, theta=cfg.param("theta", 3.5))
    b.estimates["lhs"] = rep.lhs
    b.estimates["rhs"] = rep.rhs
    b.verdicts.append(Verdict.check("lhs_below_rhs", rep.lhs, rep.rhs))
    b.add_table("sides", ["component", "value"],
                [["lhs", rep.lhs], ["rhs", rep.rhs]]
                + [[k, v] for k, v in sorted(rep.components.items())])


# ---------------------------------------------------------------------------
# chain scenarios
# ---------------------------------------------------------------------------


@_scenario(
    "psi-properties",
    "bracket density symmetric PSD across random generators, hand case exact",
    "bracket density of the compensated chain indicator",
    "chain",
    budget_s=5.0,
)
def psi_properties(cfg: ExperimentConfig, b: ReportBundle) -> None:
    rng = np.random.default_rng(cfg.seed)
    worst_asym = 0.0
    worst_eig = 0.0
    generators = cfg.param("generators", 100)
    if generators < 1:  # no generator would pass both verdicts unchecked
        raise ConfigError(f"generators must be at least 1, got {generators}")
    for _ in range(generators):
        n = int(rng.integers(2, 7))
        A = rng.uniform(0.0, 3.0, size=(n, n))
        np.fill_diagonal(A, 0.0)
        A -= np.diag(A.sum(axis=0))
        for i in range(n):
            psi = psi_matrix(A, np.eye(n)[i])
            worst_asym = max(worst_asym, float(np.max(np.abs(psi - psi.T))))
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(psi).min()))
    b.verdicts.append(Verdict.check("symmetry_exact", worst_asym, 0.0))
    b.verdicts.append(Verdict.check("min_eigenvalue", worst_eig, -1e-12, op=">="))
    lam = 1.3
    A2 = np.array([[-lam, 0.7], [lam, -0.7]])
    psi2 = psi_matrix(A2, np.array([1.0, 0.0]))
    hand = np.array([[lam, -lam], [-lam, lam]])
    b.verdicts.append(
        Verdict.check("two_state_hand_case", float(np.max(np.abs(psi2 - hand))), 0.0)
    )
    b.add_table("two_state", ["entry", "value"],
                [["psi_00", psi2[0, 0]], ["psi_01", psi2[0, 1]],
                 ["psi_10", psi2[1, 0]], ["psi_11", psi2[1, 1]]])


@_scenario(
    "chain-transform-law",
    "occupancy of the rescaled chain matches the original read at the inverse time",
    "path-law equivalence of the transformed chain",
    "chain",
    budget_s=60.0,
)
def chain_transform_law(cfg: ExperimentConfig, b: ReportBundle) -> None:
    P = cfg.paths or 10_000
    grid = TimeGrid.uniform(2.0, 101)
    A = np.array([[-1.0, 1.0], [1.0, -1.0]])
    model = MarkovChainModel(2, lambda t: A, 0, rate_bound=1.0)
    clock = chain_clock(SampledPath(grid, np.full(grid.n_nodes, 2.0), LINEAR), c2=0.0)
    tilde = transform_chain(model, clock)
    t_check = cfg.param("t_check", 1.5)
    occ_t = occupancy(simulate_chain(tilde, 2.0, P, cfg.seed), t_check, 2)
    s = float(clock.inverse_at(t_check))
    occ_o = occupancy(simulate_chain(model, 2.0, P, cfg.seed + 1), s, 2)
    gap = float(np.max(np.abs(occ_t - occ_o)))
    b.estimates["occupancy_gap"] = gap
    b.verdicts.append(Verdict.check("occupancy_gap", gap, 3.0 / math.sqrt(P)))
    b.add_table("occupancy", ["state", "transformed_at_t", "original_at_inv_t"],
                [[str(i), float(occ_t[i]), float(occ_o[i])] for i in range(2)])


@_scenario(
    "message-transmission",
    "reach probability: tamed backward equation vs killed-chain Monte Carlo",
    "hitting-time equation with unbounded loss rates",
    "chain",
    budget_s=120.0,
)
def message_transmission_scenario(cfg: ExperimentConfig, b: ReportBundle) -> None:
    P = cfg.paths or 20_000
    A = np.array([[-1.0, 0.0], [1.0, 0.0]])
    model = MarkovChainModel(2, lambda t: A, 0, rate_bound=1.0)

    rep_const = message_transmission(
        model, lambda t, i: 1.0, source=0, target=1,
        horizon=cfg.param("horizon", 16.0), paths=P, seed=cfg.seed,
    )
    b.estimates["reach_constant"] = rep_const.reach_probability
    b.estimates["reach_constant_se"] = rep_const.mc_se
    b.verdicts.append(
        Verdict.check("constant_rate_value", abs(rep_const.reach_probability - 0.5), 0.02)
    )
    b.verdicts.append(
        Verdict.check(
            "constant_rate_vs_killed_mc",
            abs(rep_const.reach_probability - rep_const.mc_estimate),
            3.0 * rep_const.mc_se,
        )
    )

    rep_tv = message_transmission(
        model, lambda t, i: 1.0 + t, source=0, target=1,
        horizon=cfg.param("horizon_tv", 12.0), paths=P, seed=cfg.seed + 1,
    )
    b.estimates["reach_time_varying"] = rep_tv.reach_probability
    b.estimates["reach_time_varying_se"] = rep_tv.mc_se
    b.verdicts.append(
        Verdict.check(
            "time_varying_vs_killed_mc",
            abs(rep_tv.reach_probability - rep_tv.mc_estimate),
            3.0 * rep_tv.mc_se,
        )
    )
    b.verdicts.append(Verdict.check("tail_probability", rep_tv.tail_probability, 1e-3))
    b.add_table("estimates", ["case", "equation_value", "killed_mc", "mc_se"],
                [["constant", rep_const.reach_probability, rep_const.mc_estimate, rep_const.mc_se],
                 ["time_varying", rep_tv.reach_probability, rep_tv.mc_estimate, rep_tv.mc_se]])


@_scenario(
    "chain-bound-verification",
    "solved reach probabilities stay inside the a-priori bound profiles",
    "solution bounds for tamed hitting-time equations",
    "chain",
    budget_s=60.0,
)
def chain_bound_verification(cfg: ExperimentConfig, b: ReportBundle) -> None:
    A = np.array([[-1.0, 0.0], [1.0, 0.0]])
    model = MarkovChainModel(2, lambda t: A, 0, rate_bound=1.0)
    grid = TimeGrid.uniform(cfg.param("horizon", 12.0), 121)
    problem = build_message_problem(model, lambda t, i: 1.0, target=1, horizon_grid=grid)
    clock = chain_clock(problem.driver.c_path, problem.driver.c2, target="image")
    tilde = transform_chain_problem(problem, clock)
    sol = map_chain_solution(solve_chain_bsde(tilde, "markov-ode", clock.target_grid), clock)
    tol = 0.02 if cfg.tol is None else cfg.tol
    r42, _ = verify_bound(sol, problem.driver, "doubled", tol)
    r44, _ = verify_bound(sol, problem.driver, "tight", tol)
    b.estimates["ratio_doubled_profile"] = r42
    b.estimates["ratio_tight_profile"] = r44
    b.verdicts.append(Verdict.check("doubled_profile", r42, 1.0 + tol))
    b.verdicts.append(Verdict.check("tight_profile", r44, 1.0 + tol))
    b.add_table("ratios", ["variant", "sup_ratio"],
                [["doubled", r42], ["tight", r44]])


@_scenario(
    "gamma-balance-preservation",
    "balance ratios survive the chain transform with the same gamma",
    "scale invariance of the compensator-perturbation structure",
    "chain",
    budget_s=10.0,
)
def gamma_balance_preservation(cfg: ExperimentConfig, b: ReportBundle) -> None:
    probes = cfg.param("probes", 1000)
    grid = TimeGrid.uniform(1.0, 101)
    A = np.array([[-2.0, 0.0, 0.0], [1.0, -1.0, 0.0], [1.0, 1.0, 0.0]])
    model = MarkovChainModel(3, lambda t: A, 0, rate_bound=2.0)
    cases = [
        ("compensator", 1.0, lambda t, i, z, zp: A[:, i]),
        ("scaled", 0.7, lambda t, i, z, zp: 0.7 * A[:, i]),
        ("weighted", 0.5, lambda t, i, z, zp: (np.array([1.0, 1.5, 0.5]) * A[:, i] if i == 0 else A[:, i])),
    ]
    rows = []
    all_pass = True
    for name, gamma, eta in cases:
        def f(t, i, y, z, eta=eta):
            return float(z @ (eta(t, i, z, None) - A[:, i])) - (1.0 + 2.0 * t) * y

        drv = GammaBalancedDriver(
            f=f, eta=eta, gamma=gamma,
            c_path=SampledPath(grid, 1.0 + 2.0 * grid.nodes, LINEAR),
            c1=0.0, c2=0.0, beta_hat=0.0, beta=1.0, beta_tilde=1.0,
            k1=lambda t: 1.0, k2=lambda t: 1.0,
        )
        clock = chain_clock(drv.c_path, c2=0.0)
        rep_in = check_gamma_balanced(drv, model, probes, seed=cfg.seed)
        rep_out = check_gamma_balanced(
            transform_chain_driver(drv, clock),
            transform_chain(model, clock),
            probes,
            t_max=float(clock.target_grid.t_end),
            seed=cfg.seed + 1,
        )
        rows.append([name, gamma, rep_in.passed, rep_out.passed,
                     rep_out.worst_ratio_deviation])
        all_pass = all_pass and rep_in.passed and rep_out.passed
    b.add_table("cases", ["driver", "gamma", "input_passes", "transformed_passes", "worst_ratio_dev"],
                [[n, g, str(i), str(o), w] for n, g, i, o, w in rows])
    b.verdicts.append(Verdict.check("all_cases_balanced", 0.0 if all_pass else 1.0, 0.0))
