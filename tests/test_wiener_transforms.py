import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tcbsde import wiener
from tcbsde.errors import PreconditionError, SchemeError, StructuralError
from tcbsde.harness import ExperimentConfig, run_scenario
from tcbsde.timechange import IncreasingProcess, TimeChangeMap, TimeGrid, build_phi
from tcbsde.wiener import (
    BrownianEnsemble,
    TransformedProblem,
    WienerBSDEProblem,
    check_uniform_lipschitz,
    restrict_brownian,
    simulate_brownian,
    transform_brownian,
    transform_driver,
)
from util import clock_on, coeffs_on, grid_uniform, linear_problem
from wiener_reference import reference_path_values


# ---------------------------------------------------------------------------
# simulate_brownian
# ---------------------------------------------------------------------------


def test_brownian_step_variance():
    # chi-square oracle: sample variance of n=1e4 draws of N(0, 0.01) stays
    # within +-5% (about 3.5 sigma) for almost every seed
    g = grid_uniform(1.0, 101)
    W = simulate_brownian(g, paths=10_000, dim=1, seed=11)
    var = np.var(W.increments[:, :, 0], axis=0)
    assert np.all(var > 0.0095) and np.all(var < 0.0105)


@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray], ids=["C", "F"])
def test_brownian_variance_table_reads_the_increments_values_only(monkeypatch, layout):
    # the brownian-variance scenario's step_variance table, from a copy of the
    # same increments laid out C-ordered or column-major, holds the same bytes
    # as from the increments transform_brownian returns
    import tcbsde.scenarios as scenarios

    cfg = ExperimentConfig("brownian-variance", seed=7)
    native = run_scenario(cfg, write=False).tables["step_variance"]
    transform = scenarios.transform_brownian

    def relaid(W, clock):
        out = transform(W, clock)
        return replace(out, increments=layout(out.increments))

    monkeypatch.setattr(scenarios, "transform_brownian", relaid)
    copied = run_scenario(cfg, write=False).tables["step_variance"]
    assert np.array(copied[1]).tobytes() == np.array(native[1]).tobytes()


def test_brownian_determinism():
    g = grid_uniform(1.0, 51)
    a = simulate_brownian(g, 100, 2, seed=5)
    b = simulate_brownian(g, 100, 2, seed=5)
    assert np.array_equal(a.increments, b.increments)


def test_brownian_cross_correlation():
    g = grid_uniform(1.0, 21)
    P = 10_000
    W = simulate_brownian(g, P, 2, seed=3)
    x = W.values[:, -1, 0]
    y = W.values[:, -1, 1]
    corr = float(np.mean(x * y) / (np.std(x) * np.std(y)))
    assert abs(corr) <= 3.0 / math.sqrt(P)


def test_brownian_rejects_bad_shape():
    with pytest.raises(PreconditionError):
        simulate_brownian(grid_uniform(1.0, 11), 0, 1, seed=0)


@pytest.mark.parametrize("paths, dim", [(2.5, 1), (10, 1.5), (10.0, 1), ("10", 1)])
def test_brownian_takes_positive_integer_counts_only(paths, dim):
    # the rule of the chain simulators: not a bare NumPy TypeError
    with pytest.raises(PreconditionError, match="must be a positive integer"):
        simulate_brownian(grid_uniform(1.0, 11), paths, dim, seed=0)


# ---------------------------------------------------------------------------
# transform_brownian
# ---------------------------------------------------------------------------


def test_transform_identity_clock():
    g = grid_uniform(1.0, 101)
    W = simulate_brownian(g, 50, 1, seed=1)
    out = transform_brownian(W, TimeChangeMap.identity(g))
    assert np.allclose(out.increments, W.increments)


def test_transform_constant_clock_rescales_exactly():
    # alpha^2 = 4: phi(t) = 4t, target step 0.04 pulls back to source step 0.01
    # and the increment doubles; Var(dW~) = 4 * 0.01 = 0.04
    src = grid_uniform(1.0, 401)  # step 0.0025 refines the pulled-back step 0.01
    W = simulate_brownian(src, 4000, 1, seed=7)
    clock = clock_on(src, 4.0, eps=1.0, target=TimeGrid.uniform(4.0, 101))
    out = transform_brownian(W, clock)
    assert out.grid.t_end == pytest.approx(4.0)
    # variance algebra oracle
    var = float(np.var(out.increments[:, :, 0]))
    assert var == pytest.approx(0.04, rel=0.05)
    # the first target increment spans source [0, 0.01]: exactly twice W(0.01)
    snapped = W.values[:, 4, 0]  # node 4 = t 0.01
    assert np.allclose(out.increments[:, 0, 0], 2.0 * snapped)


def test_transform_levy_variance_monte_carlo():
    # Monte Carlo CI oracle: Var(W~_1) = 1 under the clock alpha^2 = 1 + 2s
    src = grid_uniform(1.0, 1001)
    W = simulate_brownian(src, 10_000, 1, seed=2)
    clock = clock_on(src, 1.0 + 2.0 * src.nodes, eps=0.5, target=TimeGrid.uniform(1.0, 101))
    out = transform_brownian(W, clock)
    w1 = np.sum(out.increments[:, :, 0], axis=1)
    assert 0.95 <= float(np.var(w1)) <= 1.05
    # per-step variance invariant and step independence (numerical Levy face)
    var = np.var(out.increments[:, :, 0], axis=0)
    assert np.allclose(var, out.grid.steps, rtol=0.12)
    lag = np.mean(out.increments[:, :-1, 0] * out.increments[:, 1:, 0], axis=0)
    assert np.max(np.abs(lag)) <= 4.0 * np.max(out.grid.steps) / math.sqrt(out.paths)


def test_transform_requires_fine_source():
    src = grid_uniform(1.0, 11)
    W = simulate_brownian(src, 10, 1, seed=0)
    clock = clock_on(src, 1.0, eps=0.5, target=TimeGrid.uniform(1.0, 401))
    with pytest.raises(StructuralError):
        transform_brownian(W, clock)  # target finer than source: snapping collides


# ---------------------------------------------------------------------------
# restrict_brownian, and what restriction and the transform hold
# ---------------------------------------------------------------------------


def test_restrict_brownian_rejects_grids_that_are_not_nested():
    # the nodes k/7 sit up to 0.043 from the nearest of the nodes k/10; read
    # there unrescaled, the increments would have variances 0.100 and 0.200
    # on steps of 0.143
    W = simulate_brownian(grid_uniform(1.0, 11), 50, 1, seed=0)
    with pytest.raises(StructuralError, match="not nested"):
        restrict_brownian(W, TimeGrid.uniform(1.0, 8))


def test_restrict_brownian_rejects_a_grid_past_the_simulated_end():
    W = simulate_brownian(grid_uniform(1.0, 11), 50, 1, seed=0)
    with pytest.raises(StructuralError, match="runs past"):
        restrict_brownian(W, TimeGrid(np.array([0.0, 0.5, 1.04])))


def test_restrict_brownian_sums_the_fine_steps_of_a_nested_grid():
    # nodes 0, 0.3, 0.4 and 1.0 of the fine grid, the last two read to within
    # the 1e-9 slack
    fine = grid_uniform(1.0, 11)
    W = simulate_brownian(fine, 50, 2, seed=1)
    coarse = TimeGrid(np.array([0.0, fine.nodes[3], fine.nodes[4] + 5e-10, 1.0 + 5e-10]))
    out = restrict_brownian(W, coarse)
    assert out.grid is coarse and "values" not in W.__dict__
    want = np.diff(W.values[:, [0, 3, 4, 10], :], axis=1)
    assert out.increments.tobytes() == want.tobytes()


def _fine_pipeline(paths=2000):
    # the benchmark's pair: 2,000 paths on 1,001 nodes, read at 51
    fine = grid_uniform(1.0, 1001)
    g = grid_uniform(1.0, 51)
    prob = linear_problem(g, 0.1 * (1.0 + g.nodes), 0.0, (0.0, 0.0, 1.0), eps=0.05)
    clock = build_phi(prob.coeffs, IncreasingProcess.identity(g), target="image")
    return simulate_brownian(fine, paths, 1, seed=3), g, prob, clock


def test_restriction_and_transform_read_nodes_without_building_values():
    W, g, prob, clock = _fine_pipeline(paths=300)
    restricted = restrict_brownian(W, g)
    noise = transform_brownian(W, clock)
    tp = transform_driver(prob, clock, W=W)
    assert "values" not in W.__dict__
    # against the values of the same increments, built afterwards
    vals = W.values
    idx = np.searchsorted(W.grid.nodes, clock.inverse.values)
    assert np.array_equal(W.grid.nodes[idx], clock.inverse.values)
    # equal bytes in the same layout in memory: reductions over them, such
    # as brownian-variance's variance per step, sum in the same order
    for got, want in [
        (restricted.increments, np.diff(vals[:, idx, :], axis=1)),
        (tp.state, vals[:, idx, :]),
        (tp.noise.increments, noise.increments),
    ]:
        assert got.tobytes() == want.tobytes() and got.strides == want.strides
    assert np.var(noise.increments[:, :, 0], axis=0).tobytes() == np.var(
        np.diff(vals[:, idx, 0], axis=1) * np.sqrt(clock.target_grid.steps / np.diff(W.grid.nodes[idx])),
        axis=0,
    ).tobytes()


def test_restriction_then_transform_sums_the_fine_path_once():
    # the image clock's inverse falls on the restricted grid's nodes, so the
    # transform is handed the read the restriction made
    W, g, prob, clock = _fine_pipeline(paths=300)
    restricted = restrict_brownian(W, g)
    kept = W._node_read[1]
    tp = transform_driver(prob, clock, W=W)
    assert tp.state is kept
    assert not tp.state.flags.writeable
    # a fresh read of the same increments: equal bytes in the same layout
    idx = np.searchsorted(W.grid.nodes, clock.inverse.values)
    fresh = wiener._path_nodes(BrownianEnsemble(grid=W.grid, increments=W.increments, seed=W.seed), idx)
    for got, want in [(tp.state, fresh), (restricted.increments, np.diff(fresh, axis=1))]:
        assert got.tobytes() == want.tobytes() and got.strides == want.strides
    # a read at other nodes is summed afresh and replaces the kept one, also
    # at as many nodes
    other = wiener._path_nodes(W, idx[:-1])
    assert other.tobytes() == fresh[:, :-1, :].tobytes()
    moved = wiener._path_nodes(W, idx[:-1] + 1)
    assert moved.tobytes() == reference_path_values(W.increments)[:, idx[:-1] + 1, :].tobytes()
    assert wiener._path_nodes(W, idx) is not tp.state
    assert "values" not in W.__dict__


def test_restriction_and_transform_of_a_fine_ensemble_stay_small():
    # building W.values (16 MB here) would put the peak above 18 MB; reading
    # only the 51 nodes holds the three (2000, 50) or (2000, 51) results,
    # 2.4 MB, and one running row of 2,000 values
    W, g, prob, clock = _fine_pipeline()
    tracemalloc.start()
    try:
        restricted = restrict_brownian(W, g)
        tp = transform_driver(prob, clock, W=W)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000
    assert restricted.paths == tp.noise.paths == 2000


# ---------------------------------------------------------------------------
# transform_driver / check_uniform_lipschitz
# ---------------------------------------------------------------------------


def test_transform_zero_driver():
    from dataclasses import replace

    g = grid_uniform(1.0, 101)

    def zero(t, w, y, z):
        return np.zeros(y.shape)

    prob = replace(linear_problem(g, 0.0, 0.0, (0.0,), eps=0.5), driver=zero)
    clock = build_phi(prob.coeffs, IncreasingProcess.identity(g))
    tp = transform_driver(prob, clock)
    out = tp.problem.driver(0.3, np.zeros((4, 1)), np.ones(4), np.ones((4, 1)))
    assert np.allclose(out, 0.0)


def test_transform_linear_y_driver():
    # f = 2y with alpha^2 = 2 transforms to exactly y
    g = grid_uniform(1.0, 101)
    prob = linear_problem(g, 2.0, 0.0, (1.0,), eps=1.0)
    clock = build_phi(prob.coeffs, IncreasingProcess.identity(g))
    tp = transform_driver(prob, clock)
    y = np.array([0.3, -1.2, 2.0])
    out = tp.problem.driver(0.5, np.zeros((3, 1)), y, np.zeros((3, 1)))
    assert np.allclose(out, y)


def test_transform_linear_z_driver():
    # f = 3z with alpha^2 = 9: z rescaled by alpha then scaled by 1/9 -> z
    g = grid_uniform(1.0, 101)
    prob = linear_problem(g, 0.0, 3.0, (1.0,), eps=1.0)
    clock = build_phi(prob.coeffs, IncreasingProcess.identity(g))
    tp = transform_driver(prob, clock)
    z = np.array([[0.4], [-2.0], [1.0]])
    out = tp.problem.driver(1.5, np.zeros((3, 1)), np.zeros(3), z)
    assert np.allclose(out, z[:, 0])


def test_lipschitz_ratio_zero_driver():
    assert check_uniform_lipschitz(lambda t, w, y, z: np.zeros(y.shape), 1000, 2.0) == 0.0


def test_lipschitz_ratio_transformed_vs_raw():
    g = grid_uniform(1.0, 201)
    prob = linear_problem(g, 2.0, 0.0, (1.0,), eps=1.0)
    clock = build_phi(prob.coeffs, IncreasingProcess.identity(g))
    tp = transform_driver(prob, clock)
    ratio_t = check_uniform_lipschitz(tp.problem.driver, 2000, 2.0, t_range=(0.0, 2.0), seed=4)
    assert ratio_t == pytest.approx(1.0, abs=1e-12)
    ratio_raw = check_uniform_lipschitz(prob.driver, 2000, 2.0, seed=4)
    assert ratio_raw == pytest.approx(2.0, abs=1e-12)


def test_lipschitz_ratio_time_varying_never_exceeds_one():
    g = grid_uniform(1.0, 301)
    prob = linear_problem(g, 1.0 + 20.0 * g.nodes**2, 2.0 + 3.0 * g.nodes, (1.0,), eps=0.5)
    clock = build_phi(prob.coeffs, IncreasingProcess.identity(g))
    tp = transform_driver(prob, clock)
    horizon = clock.forward.values[-1]
    ratio = check_uniform_lipschitz(
        tp.problem.driver, 4000, 3.0, t_range=(0.0, float(horizon)), seed=9
    )
    assert ratio <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# probe helpers
# ---------------------------------------------------------------------------


def probe_mode_conditions(
    problem: WienerBSDEProblem, n_probes: int = 200, box: float = 2.0, seed: int = 0
) -> dict:
    """Spot-check the declared coefficient inequalities on random probes.

    Returns the worst observed slack per condition; negative slack means a
    violation.  This is a sanity screen, not a proof.
    """
    rng = np.random.default_rng(seed)
    coeffs = problem.coeffs
    grid = coeffs.grid
    worst = {"y_lipschitz": math.inf, "z_lipschitz": math.inf, "monotone": math.inf}
    for _ in range(n_probes):
        t = float(rng.uniform(0.0, grid.t_end))
        w = rng.uniform(-box, box, size=(1, problem.d))
        y1, y2 = rng.uniform(-box, box, size=2)
        z = rng.uniform(-box, box, size=(1, problem.d))
        z2 = rng.uniform(-box, box, size=(1, problem.d))
        rt = float(coeffs.r.at(t))
        ut = float(coeffs.u.at(t))
        f_y1 = float(np.asarray(problem.driver(t, w, np.array([y1]), z)).ravel()[0])
        f_y2 = float(np.asarray(problem.driver(t, w, np.array([y2]), z)).ravel()[0])
        f_z2 = float(np.asarray(problem.driver(t, w, np.array([y1]), z2)).ravel()[0])
        dz = float(np.linalg.norm(z - z2))
        if problem.coeffs.mode == "lipschitz":
            if abs(y1 - y2) > 1e-12:
                worst["y_lipschitz"] = min(
                    worst["y_lipschitz"], rt * abs(y1 - y2) - abs(f_y1 - f_y2)
                )
        else:
            if abs(y1 - y2) > 1e-12:
                worst["monotone"] = min(
                    worst["monotone"],
                    -rt * (y1 - y2) ** 2 - (y1 - y2) * (f_y1 - f_y2),
                )
        if dz > 1e-12:
            worst["z_lipschitz"] = min(worst["z_lipschitz"], ut * dz - abs(f_y1 - f_z2))
    return worst


def probe_monotone_transform(
    transformed: TransformedProblem, n_probes: int = 200, box: float = 2.0, seed: int = 0
) -> tuple[float, float]:
    """Worst probed monotonicity and growth constants of a transformed driver.

    Both stay at or below 1 for drivers declared in monotone mode.
    """
    rng = np.random.default_rng(seed)
    f = transformed.problem.driver
    t_end = transformed.grid.t_end
    mono = 0.0
    growth = 0.0
    for _ in range(n_probes):
        t = float(rng.uniform(0.0, t_end))
        w = rng.uniform(-box, box, size=(1, 1))
        y1, y2 = rng.uniform(-box, box, size=2)
        z = rng.uniform(-box, box, size=(1, 1))
        f1 = float(np.asarray(f(t, w, np.array([y1]), z)).ravel()[0])
        f2 = float(np.asarray(f(t, w, np.array([y2]), z)).ravel()[0])
        f0 = float(np.asarray(f(t, w, np.zeros(1), z)).ravel()[0])
        if abs(y1 - y2) > 1e-9:
            mono = max(mono, (y1 - y2) * (f1 - f2) / (y1 - y2) ** 2)
        if abs(y1) > 1e-9:
            growth = max(growth, (abs(f1) - abs(f0)) / abs(y1))
    return mono, growth


def test_probe_mode_conditions_linear():
    g = grid_uniform(1.0, 101)
    prob = linear_problem(g, 1.5, 0.5, (1.0,), eps=0.5)
    worst = probe_mode_conditions(prob, n_probes=300, seed=1)
    assert worst["y_lipschitz"] >= -1e-9
    assert worst["z_lipschitz"] >= -1e-9


def test_monotone_transform_constants():
    # monotone mode: f = -3 y^3 / (1 + y^2) + l(t) with growth l; transformed
    # monotonicity and growth probe at or below 1
    g = grid_uniform(1.0, 201)
    c = coeffs_on(g, 0.0, 1.0, eps=0.5, mode="monotone", l=2.0 + g.nodes)

    def driver(t, w, y, z):
        lt = 2.0 + t
        return -lt * y + float(c.u.at(t)) * z[:, 0]

    from tcbsde.wiener import TerminalRule, WienerBSDEProblem, PolynomialPayoff

    prob = WienerBSDEProblem(
        k=1, d=1, driver=driver, coeffs=c,
        terminal=TerminalRule(kind="fixed"), payoff=PolynomialPayoff((1.0,)),
    )
    clock = build_phi(c, IncreasingProcess.identity(g))
    tp = transform_driver(prob, clock)
    mono, growth = probe_monotone_transform(tp, n_probes=300, seed=2)
    assert mono <= 1.0 + 1e-9
    assert growth <= 1.0 + 1e-9
