import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from tcbsde.errors import (
    DomainError,
    InvariantError,
    PreconditionError,
    SchemeError,
    StructuralError,
    UnsupportedError,
)
from tcbsde.timechange import (
    LINEAR,
    IncreasingProcess,
    SampledPath,
    TimeChangeMap,
    TimeGrid,
    build_clock_from_density,
)
from tcbsde.chain import (
    ChainBSDEProblem,
    GammaBalancedDriver,
    MarkovChainModel,
    build_message_problem,
    chain_clock,
    map_chain_solution,
    message_transmission,
    simulate_chain,
    simulate_killed_chain,
    solve_chain_bsde,
    transform_chain,
    transform_chain_driver,
    transform_chain_problem,
    verify_bound,
)

from thinning_reference import reference_validate_k_functions


def line_model(lam=1.0, initial=0):
    # two-node line: source -> target at rate lam, target absorbing
    A = np.array([[-lam, 0.0], [lam, 0.0]])
    return MarkovChainModel(2, lambda t: A, initial, rate_bound=lam)


def constant_terminal_problem(model, grid, c=2.5):
    return ChainBSDEProblem(
        model=model,
        driver=GammaBalancedDriver(
            f=lambda t, i, y, z: 0.0,
            eta=lambda t, i, z, zp: model.rates(t)[:, i],
            gamma=1.0,
            c_path=SampledPath(grid, np.zeros(grid.n_nodes), LINEAR),
            c1=0.0, c2=0.0, beta_hat=0.0, beta=1.0, beta_tilde=1.0,
            k1=lambda t: max(c, 1.0), k2=lambda t: max(c, 1.0) ** 2,
        ),
        hitting_set=frozenset({1}),
        terminal_fn=lambda t, i: c,
        markovian=True,
    )


# ---------------------------------------------------------------------------
# solve_chain_bsde
# ---------------------------------------------------------------------------


def test_constant_terminal_markov_ode():
    # zero driver, constant terminal, certain absorption: Y identically c
    grid = TimeGrid.uniform(20.0, 201)
    model = line_model()
    sol = solve_chain_bsde(constant_terminal_problem(model, grid), "markov-ode", grid)
    assert np.allclose(sol.state_values, 2.5, atol=1e-6)
    assert sol.metadata["tail_probability"] == pytest.approx(math.exp(-20.0), abs=1e-6)


def test_tail_probability_line_model_exact():
    # single exponential exit at rate 1: no hit by the horizon 2 with prob e^{-2}
    grid = TimeGrid.uniform(2.0, 21)
    model = line_model()
    sol = solve_chain_bsde(constant_terminal_problem(model, grid), "markov-ode", grid)
    assert sol.metadata["tail_probability"] == pytest.approx(math.exp(-2.0), rel=1e-6)


def test_tail_probability_three_states_exact():
    # survival off the absorbing state: column sums of the sub-generator's exponential
    A = np.array([[-2.0, 1.0, 0.0], [1.5, -2.0, 0.0], [0.5, 1.0, 0.0]])
    model = MarkovChainModel(3, lambda t: A, 0, rate_bound=2.0)
    grid = TimeGrid.uniform(3.0, 61)
    problem = ChainBSDEProblem(
        model=model,
        driver=GammaBalancedDriver(
            f=lambda t, i, y, z: 0.0,
            eta=lambda t, i, z, zp: A[:, i],
            gamma=1.0,
            c_path=SampledPath(grid, np.zeros(grid.n_nodes), LINEAR),
            c1=0.0, c2=0.0, beta_hat=0.0, beta=1.0, beta_tilde=1.0,
            k1=lambda t: 1.0, k2=lambda t: 1.0,
        ),
        hitting_set=frozenset({2}),
        terminal_fn=lambda t, i: 1.0 if i == 2 else 0.0,
        markovian=True,
    )
    sol = solve_chain_bsde(problem, "markov-ode", grid)
    exact = expm(A[:2, :2] * 3.0)[:, 0].sum()
    assert sol.metadata["tail_probability"] == pytest.approx(exact, rel=1e-6)


def test_markov_ode_integrates_once(monkeypatch):
    from tcbsde import chain

    calls = []
    real = chain.rk45

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(chain, "rk45", counting)
    grid = TimeGrid.uniform(2.0, 21)
    solve_chain_bsde(constant_terminal_problem(line_model(), grid), "markov-ode", grid)
    assert len(calls) == 1


def test_constant_terminal_picard():
    grid = TimeGrid.uniform(20.0, 201)
    model = line_model()
    sol = solve_chain_bsde(
        constant_terminal_problem(model, grid), "picard", grid, paths=500, seed=2
    )
    assert np.allclose(sol.path_Y, 2.5, atol=1e-9)


def test_picard_matches_markov_ode_three_states():
    # cross-scheme oracle on a 3-state problem with y- and z-dependence
    A = np.array([[-2.0, 1.0, 0.0], [1.5, -2.0, 0.0], [0.5, 1.0, 0.0]])
    model = MarkovChainModel(3, lambda t: A, 0, rate_bound=2.0)
    grid = TimeGrid.uniform(8.0, 161)

    def eta(t, i, z, zp):
        return 0.8 * A[:, i]

    def f(t, i, y, z):
        return -0.3 * y + float(z @ (eta(t, i, z, None) - A[:, i]))

    problem = ChainBSDEProblem(
        model=model,
        driver=GammaBalancedDriver(
            f=f, eta=eta, gamma=0.8,
            c_path=SampledPath(grid, np.full(grid.n_nodes, 0.3), LINEAR),
            c1=0.0, c2=0.0, beta_hat=0.0, beta=1.0, beta_tilde=1.0,
            k1=lambda t: 1.0, k2=lambda t: 1.0,
        ),
        hitting_set=frozenset({2}),
        terminal_fn=lambda t, i: 1.0,
        markovian=True,
    )
    ode = solve_chain_bsde(problem, "markov-ode", grid)
    pic = solve_chain_bsde(problem, "picard", grid, paths=4000, seed=3)
    y0_ode = ode.state_values[0, 0]
    y0_pic = pic.state_values[0, 0]
    assert abs(y0_pic - y0_ode) <= 0.02 * max(abs(y0_ode), 1.0)


def test_picard_fixed_point_cap():
    # f = -L y with a declared c_path of 1 passes the contraction guard
    # (dt * 1 = 0.1 < 1) whatever the true per-step slope -L * dt is
    grid = TimeGrid.uniform(2.0, 21)

    def solve(L, c):
        prob = constant_terminal_problem(line_model(), grid, c=c)
        prob.driver.f = lambda t, i, y, z: -L * y
        prob.driver.c_path = SampledPath(grid, np.ones(grid.n_nodes), LINEAR)
        return solve_chain_bsde(prob, "picard", grid, paths=200, seed=0)

    # slope -5: the iteration diverges
    with pytest.raises(SchemeError, match=r"step \d+ .*state 0.*last residual"):
        solve(50.0, 2.5)
    # slope -0.5 at Y near 1e5: converges to a one-ulp oscillation (1.5e-11),
    # above the absolute tolerance 1e-12 but not a failure
    sol = solve(5.0, 1e5)
    assert np.all(np.isfinite(sol.state_values))


def test_picard_cap_follows_declared_slope():
    # f = -9 y with c_path 9 and dt 0.1: the per-step slope 0.9 passes the
    # guard but needs about 260 iterations to reach 1e-12, past the floor of 100
    grid = TimeGrid.uniform(2.0, 21)

    def solve(L):
        prob = constant_terminal_problem(line_model(), grid)
        prob.driver.f = lambda t, i, y, z: -L * y
        prob.driver.c_path = SampledPath(grid, np.full(grid.n_nodes, 9.0), LINEAR)
        return solve_chain_bsde(prob, "picard", grid, paths=200, seed=0)

    sol = solve(9.0)
    S, Y = sol.path_states, sol.path_Y
    for j in range(grid.n_nodes - 1):
        # the fixed point of y = cond - 0.9 y, with cond the state-0 mean of Y one step on
        sel = (sol.stop_idx > j) & (S[:, j] == 0)
        if np.any(sel):
            assert sol.state_values[j, 0] == pytest.approx(np.mean(Y[sel, j + 1]) / 1.9, abs=1e-11)
    # a c_path that understates the true slope (1.2) still ends in SchemeError
    with pytest.raises(SchemeError, match=r"did not converge in \d+ iterations"):
        solve(12.0)


def test_value_at_rejects_times_outside_grid():
    grid = TimeGrid.uniform(20.0, 201)
    sol = solve_chain_bsde(constant_terminal_problem(line_model(), grid), "markov-ode", grid)
    assert sol.value_at(0.0, 0) == pytest.approx(2.5, abs=1e-6)
    assert sol.value_at(20.0 + 1e-12, 0) == sol.value_at(20.0, 0)
    assert sol.value_at(-1e-12, 0) == sol.value_at(0.0, 0)
    for t in (-1e-6, 20.0 + 1e-6, math.nan, math.inf):
        with pytest.raises(DomainError):
            sol.value_at(t, 0)
    # -1 must not wrap round to the last state's column
    for state in (-1, 2):
        with pytest.raises(DomainError):
            sol.value_at(0.0, state)


def test_non_markovian_rejected_by_ode():
    grid = TimeGrid.uniform(5.0, 51)
    model = line_model()
    prob = constant_terminal_problem(model, grid)
    prob.markovian = False
    with pytest.raises(UnsupportedError):
        solve_chain_bsde(prob, "markov-ode", grid)


# ---------------------------------------------------------------------------
# message transmission
# ---------------------------------------------------------------------------


def test_message_no_loss_certain_delivery():
    model = line_model(1.0)
    rep = message_transmission(
        model, lambda t, i: 0.0, source=0, target=1, horizon=25.0, paths=2000, seed=4
    )
    assert rep.reach_probability == pytest.approx(1.0, abs=2e-3)
    assert abs(rep.reach_probability - rep.mc_estimate) <= 3.0 * rep.mc_se + 1e-6


def test_message_competing_exponentials():
    # reach probability lam / (lam + rho) = 0.5 for unit rates
    model = line_model(1.0)
    rep = message_transmission(
        model, lambda t, i: 1.0, source=0, target=1, horizon=16.0, paths=20_000, seed=5
    )
    assert abs(rep.reach_probability - 0.5) <= 0.02
    assert abs(rep.reach_probability - rep.mc_estimate) <= 3.0 * rep.mc_se


def test_message_time_varying_loss():
    # unbounded-in-time loss rate: the tamed equation still matches the killed
    # chain, and both match direct quadrature of E[exp(-tau - tau^2/2)]
    model = line_model(1.0)
    rep = message_transmission(
        model, lambda t, i: 1.0 + t, source=0, target=1, horizon=12.0, paths=20_000, seed=6
    )
    exact = quad(lambda t: math.exp(-2.0 * t - 0.5 * t * t), 0.0, 50.0)[0]
    assert rep.reach_probability == pytest.approx(exact, abs=2e-3)
    assert abs(rep.reach_probability - rep.mc_estimate) <= 3.0 * rep.mc_se
    assert rep.tail_probability <= 1e-4


def test_killed_chain_frequencies_sum():
    model = line_model(1.0)
    est, se, killed = simulate_killed_chain(
        model, lambda t, i: 1.0, target=1, horizon=16.0, paths=5000, seed=7, loss_bound=1.0
    )
    assert est + killed == pytest.approx(1.0, abs=0.01)  # timeout fraction tiny


def test_message_rejects_unknown_target():
    from tcbsde.errors import ConfigError

    model = line_model(1.0)
    grid = TimeGrid.uniform(5.0, 51)
    with pytest.raises(ConfigError):
        build_message_problem(model, lambda t, i: 0.0, target=7, horizon_grid=grid)


def test_message_rejects_a_nan_loss_rate():
    # a loss that turns NaN after t = 1 is no non-negative loss; unchecked, it
    # failed later, in the clock or in the ODE, for another reason
    grid = TimeGrid.uniform(3.0, 31)
    loss = lambda t, i: np.where(np.asarray(t) > 1.0, np.nan, 0.5)
    with pytest.raises(PreconditionError, match="loss rates must be non-negative, got nan"):
        build_message_problem(line_model(1.0), loss, target=1, horizon_grid=grid)
    with pytest.raises(PreconditionError, match="loss rates must be non-negative, got -0.5"):
        build_message_problem(line_model(1.0), lambda t, i: -0.5, target=1, horizon_grid=grid)


def test_markov_ode_checks_the_generator():
    # column 0 sums to -0.5: picard raises on it, and so must markov-ode,
    # directly and through the clock
    A = np.array([[-1.5, 0.0], [1.0, 0.0]])
    model = MarkovChainModel(2, lambda t: A, 0, rate_bound=1.5)
    grid = TimeGrid.uniform(3.0, 31)
    problem = build_message_problem(model, lambda t, i: 0.1, target=1, horizon_grid=grid)
    clock = chain_clock(problem.driver.c_path, problem.driver.c2, target="image")
    for prob, g in ((problem, grid), (transform_chain_problem(problem, clock), clock.target_grid)):
        with pytest.raises(InvariantError, match="columns do not sum to zero at t=0.0"):
            solve_chain_bsde(prob, "markov-ode", g)
    with pytest.raises(InvariantError, match="columns do not sum to zero"):
        solve_chain_bsde(problem, "picard", grid, paths=200)


def test_message_problem_reads_the_generator_once():
    # the moment controls take the slowest exit rate off the target from one
    # read of the generator, not one read per state
    A = np.array(
        [[-1.0, 0.0, 0.5, 0.0], [0.6, 0.0, 0.5, 1.0], [0.4, 0.0, -2.0, 1.0], [0.0, 0.0, 1.0, -2.0]]
    )
    times = []

    def rate_fn(t):
        times.append(t)
        return A

    model = MarkovChainModel(4, rate_fn, 0, rate_bound=2.0)
    problem = build_message_problem(model, lambda t, i: 0.5, target=1, horizon_grid=TimeGrid.uniform(2.0, 21))
    assert times == [0.0]
    # exit0 = 1 (state 0), so the controls use the halved rate 0.5
    ts = np.linspace(0.0, 240.0, 6001)
    m1 = float(np.trapezoid((1.0 + ts) ** 2.0 * 0.5 * np.exp(-0.5 * ts), ts))
    assert problem.driver.k1(0.0) == m1


def test_message_loss_bound_is_the_largest_loss_at_both_ends_in_one_call(monkeypatch):
    # one loss falls and one rises over the horizon, so the bound needs both ends
    from tcbsde import chain

    reads, seen = [], []

    def loss(t, i):
        if np.ndim(t):
            reads.append((np.asarray(t).tolist(), np.asarray(i).tolist()))
        return np.where(np.asarray(i) == 0, 2.0 - 0.5 * np.asarray(t), 0.5 + np.asarray(t))

    def killed(model, loss_rate, target, horizon, paths, seed, loss_bound):
        seen.append((reads[-1], loss_bound))
        return 1.0, 0.0, 0.0

    monkeypatch.setattr(chain, "simulate_killed_chain", killed)
    message_transmission(line_model(2.0), loss, source=0, target=1, horizon=2.0, paths=10, seed=0)
    # 2.0 at t = 0 in state 0, 2.5 at t = 2 in state 1
    assert seen == [(([0.0, 0.0, 2.0, 2.0], [0, 1, 0, 1]), 2.5)] and type(seen[0][1]) is float


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_verify_bound_zero_solution():
    grid = TimeGrid.uniform(5.0, 51)
    model = line_model()
    prob = constant_terminal_problem(model, grid, c=0.0)
    sol = solve_chain_bsde(prob, "markov-ode", grid)
    ratio, ok = verify_bound(sol, prob.driver, "doubled")
    assert ratio == 0.0 and ok


def test_verify_bound_message_variants():
    model = line_model(1.0)
    grid = TimeGrid.uniform(12.0, 121)
    problem = build_message_problem(model, lambda t, i: 1.0, target=1, horizon_grid=grid)
    clock = chain_clock(problem.driver.c_path, problem.driver.c2, target="image")
    tilde = transform_chain_problem(problem, clock)
    tilde_sol = solve_chain_bsde(tilde, "markov-ode", clock.target_grid)
    sol = map_chain_solution(tilde_sol, clock)
    r_dbl, ok_dbl = verify_bound(sol, problem.driver, "doubled")
    r_tight, ok_tight = verify_bound(sol, problem.driver, "tight")
    assert ok_dbl and ok_tight
    # the two bound profiles differ exactly by the factor 2
    assert r_tight == pytest.approx(2.0 * r_dbl, rel=1e-12)


def test_map_chain_solution_rejects_a_grid_short_of_the_clock_range():
    # the solve stops on the 21st of 41 target nodes (3.9, against phi(T) =
    # 11.8): mapping back must refuse, not hold the last row for every t with
    # phi(t) past the grid end
    model = line_model(1.0)
    grid = TimeGrid.uniform(4.0, 41)
    problem = build_message_problem(model, lambda t, i: 1.0 + t, target=1, horizon_grid=grid)
    clock = chain_clock(problem.driver.c_path, problem.driver.c2, target="image")
    tilde = transform_chain_problem(problem, clock)
    short = TimeGrid(clock.target_grid.nodes[:21])
    assert clock.forward.values[-1] > short.t_end + 1.0
    with pytest.raises(StructuralError, match="does not cover the clock range"):
        map_chain_solution(solve_chain_bsde(tilde, "markov-ode", short), clock)
    full = map_chain_solution(solve_chain_bsde(tilde, "markov-ode", clock.target_grid), clock)
    assert full.grid is clock.source_grid


def test_markov_ode_takes_no_path_count():
    grid = TimeGrid.uniform(5.0, 51)
    problem = constant_terminal_problem(line_model(), grid)
    with pytest.raises(PreconditionError, match="no path count"):
        solve_chain_bsde(problem, "markov-ode", grid, paths=100)
    sol = solve_chain_bsde(problem, "markov-ode", grid)
    assert sol.path_states is None and sol.path_Y is None and sol.stop_idx is None


def test_verify_bound_profile_factors():
    # with c1 = c2 = 0 the growth-scaled profile collapses onto the tight one:
    # ratio_growth_scaled = ratio_tight = 2 ratio_doubled
    grid = TimeGrid.uniform(5.0, 51)
    model = line_model()
    prob = constant_terminal_problem(model, grid, c=1.0)
    sol = solve_chain_bsde(prob, "markov-ode", grid)
    d = prob.driver
    r_gs, _ = verify_bound(sol, d, "growth-scaled")
    r_dbl, _ = verify_bound(sol, d, "doubled")
    r_tight, _ = verify_bound(sol, d, "tight")
    assert r_gs == pytest.approx(r_tight, rel=1e-12)
    assert r_tight == pytest.approx(2.0 * r_dbl, rel=1e-12)
    with pytest.raises(PreconditionError):
        verify_bound(sol, d, "mystery")


def validate_k_functions(
    problem: ChainBSDEProblem,
    horizon: float,
    paths: int = 2000,
    seed: int = 0,
    rate_factors: tuple = None,
) -> dict:
    """Necessity probe of the K control functions under sampled rate perturbations.

    The full perturbation family is uncountable; this simulates the chain
    under a few admissible compensator scalings (factors inside
    ``[gamma, 1/gamma]``) and checks the three moment bounds at time zero.
    A pass is necessary evidence, not sufficiency.
    """
    d = problem.driver
    if rate_factors is None:
        rate_factors = (d.gamma, 1.0, 1.0 / d.gamma)
    out = {"candidates": [], "passed": True}
    hit = sorted(problem.hitting_set)
    g = problem.terminal_fn
    for c in rate_factors:
        scaled = MarkovChainModel(
            n_states=problem.model.n_states,
            rate_fn=lambda t, c=c: problem.model.rates(t) * c,
            initial=problem.model.initial,
            rate_bound=problem.model.rate_bound * max(c, 1.0),
        )
        sim = simulate_chain(scaled, horizon, paths, seed)
        # tau: 0 when the chain starts in the set, else its first jump into
        # the set, else the horizon, where it sits in its last state
        taus = np.full(paths, float(horizon))
        at_tau = sim.states_at([float(horizon)])[:, 0]
        into = np.flatnonzero(np.isin(sim.state, hit))
        who, first = np.unique(sim.path[into], return_index=True)
        taus[who], at_tau[who] = sim.time[into[first]], sim.state[into[first]]
        start = np.isin(sim.initial, hit)
        taus[start], at_tau[start] = 0.0, sim.initial[start]
        xis = np.array([g(float(t), int(s)) for t, s in zip(taus, at_tau)])
        e_xi = float(np.mean(np.abs(xis)))
        e_tau = float(np.mean((1.0 + taus) ** (1.0 + d.beta)))
        e_k1 = float(np.mean(np.array([abs(d.k1(t)) for t in taus]) ** (1.0 + d.beta_tilde)))
        rec = {
            "factor": c,
            "E|xi|": e_xi,
            "E(1+tau)^(1+beta)": e_tau,
            "EK1(tau)^(1+beta~)": e_k1,
            "K1(0)": d.k1(0.0),
            "K2(0)": d.k2(0.0),
            "ok": e_xi <= d.k1(0.0) + 1e-9
            and e_tau <= d.k1(0.0) + 1e-9
            and e_k1 <= d.k2(0.0) + 1e-9,
        }
        out["candidates"].append(rec)
        out["passed"] = out["passed"] and rec["ok"]
    return out


def test_k_function_probe_on_message_example():
    model = line_model(1.0)
    grid = TimeGrid.uniform(12.0, 61)
    problem = build_message_problem(model, lambda t, i: 1.0, target=1, horizon_grid=grid)
    out = validate_k_functions(problem, horizon=40.0, paths=3000, seed=8)
    assert out["passed"], out


def _flip_problem():
    # the chain leaves the hitting set again, and the terminal value depends
    # on time and state, so tau and the state at tau both show in the moments
    A = np.array([[-1.0, 2.0], [1.0, -2.0]])
    model = MarkovChainModel(2, lambda t: A, 0, rate_bound=2.0)
    grid = TimeGrid.uniform(3.0, 31)
    problem = build_message_problem(model, lambda t, i: 0.5, target=1, horizon_grid=grid)
    return replace(problem, terminal_fn=lambda t, i: (1.0 + t) * (i + 1.0))


@pytest.mark.parametrize(
    "case",
    [
        lambda: (build_message_problem(line_model(1.0), lambda t, i: 1.0, 1, TimeGrid.uniform(12.0, 61)), 40.0, 8),
        lambda: (_flip_problem(), 3.0, 9),
        lambda: (replace(_flip_problem(), hitting_set=frozenset({0})), 3.0, 10),
    ],
    ids=["message-example", "leaves-the-set", "starts-in-the-set"],
)
def test_k_function_probe_matches_path_loop(case):
    problem, horizon, seed = case()
    got = validate_k_functions(problem, horizon=horizon, paths=3000, seed=seed)
    assert got == reference_validate_k_functions(problem, horizon=horizon, paths=3000, seed=seed)


# ---------------------------------------------------------------------------
# growth normalization
# ---------------------------------------------------------------------------


def growth_normalize(
    driver: GammaBalancedDriver,
    model: MarkovChainModel,
    m: float,
    horizon: float,
    n_nodes: int = 201,
) -> tuple[TimeChangeMap, GammaBalancedDriver]:
    """Clock built from the driver's own zero-argument growth, scaled by m > 1.

    Density ``m (|f(t, 0, 0)| / (1 + t^beta_hat) + 1)`` (the state maximum of
    ``|f|`` is used); the transformed zero-argument growth shrinks to
    ``(1 + t^beta_hat) / m`` and the solution bound tightens accordingly as m
    grows.
    """
    if m <= 1.0:
        raise PreconditionError("growth normalization needs m > 1")
    grid = TimeGrid.uniform(horizon, n_nodes)
    dens = np.empty(grid.n_nodes)
    for j, t in enumerate(grid.nodes):
        f0 = max(abs(driver.f(float(t), i, 0.0, np.zeros(model.n_states))) for i in range(model.n_states))
        dens[j] = m * (f0 / (1.0 + float(t) ** driver.beta_hat) + 1.0)
    clock = build_clock_from_density(
        SampledPath(grid, dens, LINEAR), IncreasingProcess.identity(grid), eps=m
    )
    return clock, transform_chain_driver(driver, clock)


def test_growth_normalize_zero_growth():
    grid = TimeGrid.uniform(2.0, 51)
    model = line_model()
    drv = constant_terminal_problem(model, grid).driver
    clock, tilde = growth_normalize(drv, model, m=3.0, horizon=2.0)
    # f(., 0, 0) = 0: the clock is exactly m t
    assert np.allclose(clock.forward.values, 3.0 * clock.source_grid.nodes, rtol=1e-12)
    assert tilde.f(1.0, 0, 0.0, np.zeros(2)) == 0.0


def test_growth_normalize_exact_growth_profile():
    # |f(t,0,0)| = 1 + sqrt(t) exactly: clock density 2m, transformed growth
    # (1 + inv(t)^{1/2}) / (2m)
    grid = TimeGrid.uniform(2.0, 201)
    model = line_model()

    def f(t, i, y, z):
        return (1.0 + math.sqrt(t)) - 0.1 * y

    drv = GammaBalancedDriver(
        f=f,
        eta=lambda t, i, z, zp: model.rates(t)[:, i],
        gamma=1.0,
        c_path=SampledPath(grid, np.full(grid.n_nodes, 0.1), LINEAR),
        c1=0.0, c2=2.0, beta_hat=0.5, beta=1.0, beta_tilde=1.0,
        k1=lambda t: 1.0, k2=lambda t: 1.0,
    )
    m = 2.5
    clock, tilde = growth_normalize(drv, model, m=m, horizon=2.0)
    assert np.allclose(clock.forward.values, 2.0 * m * grid.nodes, rtol=1e-12)
    for t in (0.5, 1.0, 3.0):
        s = float(clock.inverse_at(t))
        want = (1.0 + math.sqrt(s)) / (2.0 * m)
        assert tilde.f(t, 0, 0.0, np.zeros(2)) == pytest.approx(want, rel=1e-9)
        assert abs(tilde.f(t, 0, 0.0, np.zeros(2))) <= (1.0 + t**0.5) / m + 1e-9


def test_chain_comparison_ordered_terminals():
    # ordered terminal functions with a common driver keep the state values
    # ordered at every node
    A = np.array([[-2.0, 1.0, 0.0], [1.5, -2.0, 0.0], [0.5, 1.0, 0.0]])
    model = MarkovChainModel(3, lambda t: A, 0, rate_bound=2.0)
    grid = TimeGrid.uniform(8.0, 161)

    def make(terminal_scale):
        return ChainBSDEProblem(
            model=model,
            driver=GammaBalancedDriver(
                f=lambda t, i, y, z: -0.2 * y,
                eta=lambda t, i, z, zp: A[:, i],
                gamma=1.0,
                c_path=SampledPath(grid, np.full(grid.n_nodes, 0.2), LINEAR),
                c1=0.0, c2=0.0, beta_hat=0.0, beta=1.0, beta_tilde=1.0,
                k1=lambda t: 1.0, k2=lambda t: 1.0,
            ),
            hitting_set=frozenset({2}),
            terminal_fn=lambda t, i: terminal_scale,
            markovian=True,
        )

    hi = solve_chain_bsde(make(1.0), "markov-ode", grid)
    lo = solve_chain_bsde(make(0.4), "markov-ode", grid)
    assert np.min(hi.state_values - lo.state_values) >= -1e-9


def test_transform_chain_never_exceeds_rate_bound():
    grid = TimeGrid.uniform(2.0, 101)
    model = line_model(1.0)
    dens = SampledPath(grid, 1.0 + 3.0 * grid.nodes, LINEAR)
    tilde = transform_chain(model, chain_clock(dens, c2=0.0))
    for u in np.linspace(0.0, 1.9, 7):
        assert np.max(-np.diag(tilde.rates(float(u)))) <= model.rate_bound * (1 + 1e-9)


def test_growth_normalize_rejects_small_m():
    grid = TimeGrid.uniform(1.0, 11)
    model = line_model()
    drv = constant_terminal_problem(model, grid).driver
    with pytest.raises(PreconditionError):
        growth_normalize(drv, model, m=1.0, horizon=1.0)


def test_growth_normalize_bound_shrinks_with_m():
    # message example: the guaranteed profile (1 + 1/m) e^{c1} K1 tightens as
    # m grows while the solved values stay inside it
    model = line_model(1.0)
    grid = TimeGrid.uniform(10.0, 101)
    problem = build_message_problem(model, lambda t, i: 1.0, target=1, horizon_grid=grid)
    sups = {}
    bounds0 = {}
    for m in (2.0, 10.0):
        clock, _ = growth_normalize(problem.driver, model, m=m, horizon=10.0, n_nodes=101)
        # the y-coefficient must still be tamed: compose with the balance clock
        tilde = transform_chain_problem(problem, chain_clock(problem.driver.c_path, 0.0, target="image"))
        sol = map_chain_solution(
            solve_chain_bsde(tilde, "markov-ode", tilde.driver.c_path.grid),
            chain_clock(problem.driver.c_path, 0.0, target="image"),
        )
        sups[m] = float(np.max(np.abs(sol.state_values)))
        bounds0[m] = (1.0 + 1.0 / m) * math.exp(problem.driver.c1) * problem.driver.k1(0.0)
    assert bounds0[10.0] < bounds0[2.0]
    assert sups[2.0] <= bounds0[2.0] and sups[10.0] <= bounds0[10.0]
