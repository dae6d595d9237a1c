import numpy as np
import pytest

from tcbsde.chain import ChainSolution, GammaBalancedDriver, map_chain_solution, transform_chain_driver
from tcbsde.errors import StructuralError, UnsupportedError
from tcbsde.timechange import (
    IncreasingProcess,
    SampledPath,
    TimeChangeMap,
    TimeGrid,
    LINEAR,
    build_phi,
    substitution_check,
    time_change_path,
)
from tcbsde.wiener import (
    SolutionEnsemble,
    TerminalRule,
    WienerBSDEProblem,
    comparison_experiment,
    map_solution,
    simulate_brownian,
    solve_lsmc,
    solve_picard_oracle,
    transform_brownian,
)
from util import coeffs_on, grid_uniform, linear_problem


def test_lsmc_rank_deficiency_falls_back_to_mean():
    # 3 paths cannot support a cubic basis: the solver flags the fallback
    g = grid_uniform(1.0, 11)
    prob = linear_problem(g, 0.0, 0.0, (0.0, 1.0), eps=0.05)
    W = simulate_brownian(g, 3, 1, seed=1)
    sol = solve_lsmc(prob, W)
    assert sol.metadata["rank_deficient"] is True
    assert np.isfinite(sol.y0())


def test_time_change_path_rejects_uncovered_clock():
    g = grid_uniform(1.0, 101)
    coeffs = coeffs_on(g, 1.0, 0.0, eps=0.9)
    beyond = TimeGrid.uniform(2.0, 21)  # clock tops out at 1
    clock = build_phi(coeffs, IncreasingProcess.identity(g), target=beyond)
    X = SampledPath(g, g.nodes.copy(), LINEAR)
    with pytest.raises(StructuralError):
        time_change_path(X, clock, "inverse")


def test_comparison_rejects_vector_solutions():
    from dataclasses import replace

    g = grid_uniform(1.0, 11)
    prob = linear_problem(g, 0.0, 0.0, (1.0,), eps=0.05)
    W = simulate_brownian(g, 50, 1, seed=0)
    with pytest.raises(UnsupportedError):
        comparison_experiment(replace(prob, k=2), replace(prob, k=2), W)


def test_lsmc_rejects_vector_solutions():
    from dataclasses import replace

    g = grid_uniform(1.0, 11)
    prob = linear_problem(g, 0.0, 0.0, (1.0,), eps=0.05)
    W = simulate_brownian(g, 50, 1, seed=0)
    with pytest.raises(UnsupportedError):
        solve_lsmc(replace(prob, k=2), W)


def test_exit_problem_cross_scheme_agreement():
    # first-exit value solved by regression and by the quadrature fixed point
    g = grid_uniform(1.0, 101)
    prob = WienerBSDEProblem(
        k=1,
        d=1,
        driver=lambda t, w, y, z: np.zeros(y.shape),
        coeffs=coeffs_on(g, 0.0, 0.0, eps=0.05),
        terminal=TerminalRule(kind="first_exit", coord=0, lower=-0.5, upper=0.5),
        payoff=lambda tau, w: (w[..., 0] >= 0.5).astype(float),
    )
    W = simulate_brownian(g, 10_000, 1, seed=3)
    lsmc = solve_lsmc(prob, W, basis="bins")
    picard = solve_picard_oracle(prob, W, iterations=2)
    # symmetric interval: both routes near (1 - survival)/2, well inside 1/2
    assert abs(lsmc.y0() - picard.y0()) <= 0.02
    assert 0.4 < lsmc.y0() < 0.5


def test_transform_chain_driver_identity_clock():
    from tcbsde.chain import MarkovChainModel

    grid = grid_uniform(1.0, 51)
    A = np.array([[-1.0, 2.0], [1.0, -2.0]])
    model = MarkovChainModel(2, lambda t: A, 0, rate_bound=2.0)
    drv = GammaBalancedDriver(
        f=lambda t, i, y, z: -0.5 * y,
        eta=lambda t, i, z, zp: A[:, i],
        gamma=1.0,
        c_path=SampledPath(grid, np.full(51, 0.5), LINEAR),
        c1=0.0, c2=0.0, beta_hat=0.0, beta=1.0, beta_tilde=1.0,
        k1=lambda t: 1.0, k2=lambda t: 1.0,
    )
    tilde = transform_chain_driver(drv, TimeChangeMap.identity(grid))
    for t in (0.1, 0.5, 0.9):
        assert tilde.f(t, 0, 1.3, np.zeros(2)) == pytest.approx(drv.f(t, 0, 1.3, np.zeros(2)))
        assert np.allclose(tilde.eta(t, 1, np.zeros(2), np.zeros(2)), A[:, 1])
    assert tilde.gamma == drv.gamma


# ---------------------------------------------------------------------------
# crossing the clock: one coverage rule for every mapper
# ---------------------------------------------------------------------------

# the solution, path and noise grid, and both grids of the clock
_G = TimeGrid.uniform(1.0, 5)


def _clock_reading(times):
    """A clock on ``_G`` whose forward values and inverse values are both ``times``.

    Both are plain paths, so a NaN or a negative value reaches the mappers
    as it would from a clock built wrongly.
    """
    return TimeChangeMap(
        forward=SampledPath(_G, times), inverse=SampledPath(_G, times), density=SampledPath(_G, np.ones(5))
    )


def _solution():
    rng = np.random.default_rng(0)
    return SolutionEnsemble(
        grid=_G, Y=rng.normal(size=(3, 5)), Z=rng.normal(size=(3, 5, 1)),
        stop_idx=np.full(3, 4), scheme="lsmc", seed=0,
    )


CROSSINGS = {
    "time_change_path-inverse": lambda C: time_change_path(SampledPath(_G, np.sin(_G.nodes)), C, "inverse"),
    "time_change_path-forward": lambda C: time_change_path(SampledPath(_G, np.sin(_G.nodes)), C, "forward"),
    "substitution_check": lambda C: substitution_check(
        SampledPath(_G, np.cos(_G.nodes)), SampledPath(_G, _G.nodes**2), C
    ),
    "map_solution-from_transformed": lambda C: map_solution(_solution(), C, "from_transformed"),
    "map_solution-to_transformed": lambda C: map_solution(_solution(), C, "to_transformed"),
    "map_chain_solution": lambda C: map_chain_solution(
        ChainSolution(grid=_G, state_values=np.arange(10.0).reshape(5, 2), scheme="markov-ode"), C
    ),
    "transform_brownian": lambda C: transform_brownian(simulate_brownian(_G, 4, 1, seed=0), C),
    "transform_chain_driver": lambda C: transform_chain_driver(
        GammaBalancedDriver(
            f=lambda t, i, y, z: -y, eta=lambda t, i, z, zp: np.zeros(2), gamma=1.0,
            c_path=SampledPath(_G, np.full(5, 0.5)), c1=0.0, c2=0.0, beta_hat=0.0,
            beta=1.0, beta_tilde=1.0, k1=lambda t: 1.0, k2=lambda t: 1.0,
        ),
        C,
    ),
}

# the clock's times: one NaN inside, a top 2e-12 past the grid end, a bottom
# 2e-12 below its start, and the grid's own nodes
CLOCK_TIMES = {
    "nan": np.array([0.0, 0.25, np.nan, 0.75, 1.0]),
    "top": np.array([0.0, 0.25, 0.5, 0.75, 1.0 + 2e-12]),
    "bottom": np.array([-2e-12, 0.25, 0.5, 0.75, 1.0]),
    "exact": _G.nodes.copy(),
}


@pytest.mark.parametrize("case", sorted(CLOCK_TIMES))
@pytest.mark.parametrize("caller", sorted(CROSSINGS))
def test_every_crossing_applies_one_coverage_rule(caller, case):
    # each mapper checks the clock range through TimeChangeMap.crossing: the
    # times must be finite and inside the grid up to SampledPath.at's 1e-12
    clock = _clock_reading(CLOCK_TIMES[case])
    if case == "exact":
        CROSSINGS[caller](clock)
        return
    with pytest.raises(StructuralError, match="does not cover the clock range"):
        CROSSINGS[caller](clock)
