"""The fast Wiener solvers against their slow references in ``wiener_reference``.

The fast solvers sum in another order (one operator per step variance, built
from the spline coefficients, and one block of right-hand sides per
regression), so they agree with the references to rounding, not bit for bit:
1e-12 relative to the largest magnitude of each compared quantity.  The node
reads at the end do the same arithmetic as their references, and are
compared bit for bit.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from tcbsde import wiener
from tcbsde.timechange import (
    LINEAR,
    CoefficientProcesses,
    IncreasingProcess,
    SampledPath,
    TimeGrid,
    _interval_index,
    build_phi,
    interp_columns,
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
from profile_reference import reference_polynomial_payoff
from util import coeffs_on, grid_uniform, linear_problem
from wiener_reference import (
    reference_oracle_read_out,
    reference_path_values,
    reference_solve_lsmc,
    reference_solve_picard_oracle,
    step_major_solve_lsmc,
)

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


# a driver and a payoff that read the state, the time and every noise
def _state_driver(t, w, y, z):
    return 0.3 * y + 0.2 * z[:, -1] + 0.1 * np.cos(w[:, 0] + t)


def _state_payoff(tau, w):
    return np.sin(3.0 * w[..., 0]) + tau


# terminal rules by where the paths stop: every one at node 0 (the state
# starts on the lower end), some inside the grid, none before the end
_STOPS = {
    "fixed": TerminalRule(kind="fixed"),
    "node 0": TerminalRule(kind="first_exit", coord=0, lower=0.0),
    "inside": TerminalRule(kind="first_exit", coord=0, lower=-0.15, upper=0.2),
    "never": TerminalRule(kind="first_exit", coord=0),
}


@settings(max_examples=80, deadline=None)
@given(
    basis=st.sampled_from(["poly", "bins"]),
    stops=st.sampled_from(sorted(_STOPS)),
    dim=st.sampled_from([1, 2]),
    paths=st.integers(1, 150),
    steps=st.integers(1, 12),
    node_major=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_lsmc_is_the_step_major_loop_byte_for_byte(basis, stops, dim, paths, steps, node_major, seed):
    g = TimeGrid(np.cumsum(np.r_[0.0, np.random.default_rng(seed).uniform(0.02, 0.1, steps)]))
    prob = WienerBSDEProblem(
        k=1, d=dim, driver=_state_driver, coeffs=coeffs_on(g, 0.3, 0.2, eps=0.05),
        terminal=_STOPS[stops], payoff=_state_payoff,
    )
    W = simulate_brownian(g, paths, dim, seed)
    if not node_major:
        # values as a C-ordered (paths, nodes, d) array, the layout it had
        W.values = np.ascontiguousarray(W.values)
    fast, ref = solve_lsmc(prob, W, basis=basis), step_major_solve_lsmc(prob, W, basis=basis)
    for got, want in [(fast.Y, ref.Y), (fast.Z, ref.Z), (fast.stop_idx, ref.stop_idx)]:
        assert got.tobytes() == want.tobytes() and got.strides == want.strides
    assert pickle.dumps(fast.metadata) == pickle.dumps(ref.metadata)


def test_values_are_the_running_sum_laid_out_node_major():
    # a first step of -0.0 stays -0.0, as in np.cumsum, and a NaN runs on
    g = TimeGrid.uniform(1.0, 8)
    inc = simulate_brownian(g, 5, 2, seed=1).increments.copy()
    inc[0, 0, 0] = -0.0
    inc[1, 3, 1] = np.nan
    W = BrownianEnsemble(grid=g, increments=inc, seed=1)
    want = np.zeros((5, 8, 2))
    np.cumsum(inc, axis=1, out=want[:, 1:, :])
    assert W.values.tobytes() == want.tobytes()
    assert math.copysign(1.0, W.values[0, 1, 0]) == -1.0
    assert W.values.transpose(1, 0, 2).flags.c_contiguous


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


# ---------------------------------------------------------------------------
# node reads: the path gather and the oracle's read-out, bit for bit
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    paths=st.integers(1, 40),
    steps=st.integers(1, 60),
    dim=st.sampled_from([1, 2]),
    picks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
    ends=st.sampled_from(["first", "last", "both", "neither"]),
    negative_zeros=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_path_nodes_are_the_values_at_the_index_bit_for_bit(
    paths, steps, dim, picks, ends, negative_zeros, seed
):
    # increments of -0.0, on the first step too, where a sum from 0.0 would
    # lose the sign
    rng = np.random.default_rng(seed)
    g = TimeGrid(np.cumsum(np.r_[0.0, rng.uniform(0.1, 1.0, steps)]))
    inc = simulate_brownian(g, paths, dim, seed).increments.copy()
    inc[:, 0, :].flat[:negative_zeros] = -0.0
    inc.flat[rng.integers(0, inc.size, negative_zeros)] = -0.0
    ref = reference_path_values(inc)
    idx = [int(p * steps) for p in picks]
    idx += {"first": [0], "last": [steps], "both": [0, steps], "neither": []}[ends]
    idx = np.array(sorted(idx))  # non-decreasing: a node may repeat
    W = BrownianEnsemble(grid=g, increments=inc, seed=seed)
    at_idx = wiener._path_nodes(W, idx)
    assert "values" not in W.__dict__
    # the same layout in memory, so a reduction over it sums in the same order
    for got, want in [(at_idx, ref[:, idx, :]), (W.values, ref)]:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.strides == want.strides
        assert not got.flags.writeable


def test_path_nodes_of_the_benchmark_ensemble():
    # the fine ensemble of the benchmark's coupled solves, read at 51 nodes
    W = simulate_brownian(TimeGrid.uniform(1.0, 1001), 2000, 1, seed=4)
    idx = np.arange(0, 1001, 20)
    got, want = wiener._path_nodes(W, idx), reference_path_values(W.increments)[:, idx, :]
    assert got.tobytes() == want.tobytes() and got.strides == want.strides


def _state_grid(kind, m, span):
    if kind == "linspace":
        return np.linspace(-span, span, m)
    # an increasing grid far from uniform: the even-grid guess misses most states
    return -span + 2.0 * span * np.linspace(0.0, 1.0, m) ** 3


def _states(rng, xs, shape):
    """States below, inside and above the grid, on nodes, next to them and at the top."""
    span = xs[-1] - xs[0]
    x = rng.uniform(xs[0] - 0.3 * span, xs[-1] + 0.3 * span, size=shape)
    nodes = xs[rng.integers(0, xs.size, size=shape)]
    kind = rng.integers(0, 7, size=shape)
    x = np.where(kind == 1, nodes, x)
    x = np.where(kind == 2, np.nextafter(nodes, np.inf), x)
    x = np.where(kind == 3, np.nextafter(nodes, -np.inf), x)
    x = np.where(kind == 4, xs[-1], x)
    x = np.where(kind == 5, xs[0], x)
    return x


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(2, 60),
    span=st.floats(1e-7, 1e3),
    kind=st.sampled_from(["linspace", "cubed"]),
    seed=st.integers(0, 2**32 - 1),
    extremes=st.booleans(),
)
def test_interval_index_is_searchsorted(m, span, kind, seed, extremes):
    xs = _state_grid(kind, m, span)
    x = _states(np.random.default_rng(seed), xs, (17, 5))
    if extremes:
        x[0, :] = [np.nan, np.inf, -np.inf, 1e308, -1e308]
    want = np.searchsorted(xs, x, side="right") - 1
    np.testing.assert_array_equal(_interval_index(xs, x), want)


def _fields(rng, n, m, special):
    f = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    f[rng.random((n, m)) < 0.1] = -0.0
    f[rng.random((n, m)) < 0.1] = 0.0
    same = rng.random((n, m - 1)) < 0.1  # equal neighbours: a zero slope
    f[:, 1:][same] = f[:, :-1][same]
    if special:
        # infinite values send np.interp through its NaN fallbacks
        f[rng.random((n, m)) < 0.05] = np.inf
        f[rng.random((n, m)) < 0.05] = -np.inf
        f[rng.random((n, m)) < 0.02] = np.nan
    return f


@settings(max_examples=80, deadline=None)
@given(
    paths=st.integers(1, 30),
    n=st.integers(1, 12),
    m=st.integers(2, 40),
    span=st.floats(1e-7, 1e3),
    kind=st.sampled_from(["linspace", "cubed"]),
    special=st.booleans(),
    node_major=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_oracle_read_out_is_the_interp_loop_bit_for_bit(
    paths, n, m, span, kind, special, node_major, seed
):
    rng = np.random.default_rng(seed)
    xs = _state_grid(kind, m, span)
    state = _states(rng, xs, (paths, n))[:, :, None]
    if special:
        state[rng.random((paths, n)) < 0.05] = np.nan
    if node_major:
        # a transformed problem's state is laid out node-major
        state = np.ascontiguousarray(state.transpose(1, 0, 2)).transpose(1, 0, 2)
    y_field, z_field = _fields(rng, n, m, special), _fields(rng, n, m, special)
    # the oracle's read: stacked fields, the states as per-column times
    got = interp_columns(xs, np.stack((y_field, z_field)), state[:, :, 0].T[None], axis=2)
    Y_ref, Z_ref = reference_oracle_read_out(state, xs, y_field, z_field)
    assert got.shape == (2, n, paths) and got.flags.c_contiguous
    assert got[0].tobytes() == np.ascontiguousarray(Y_ref.T).tobytes()
    assert got[1].tobytes() == np.ascontiguousarray(Z_ref[:, :, 0].T).tobytes()


def test_oracle_read_out_edge_rules():
    # one state per rule of np.interp, each read from a field chosen to show it
    xs = np.linspace(-1.0, 1.0, 5)  # nodes -1, -0.5, 0, 0.5, 1
    x = np.array([[-3.0, -0.5, 0.25, 1.0, 7.0, np.nan, 0.75, -0.75, -0.25]])
    n = x.shape[1]
    field = np.tile([-0.0, 2.0, 4.0, 6.0, 8.0], (n, 1))
    field[6] = [0.0, 0.0, 1.0, np.inf, 1.0]  # left slope NaN, right one finite
    field[7] = [np.inf, np.inf, 0.0, 0.0, 0.0]  # both NaN, equal values
    field[8] = [0.0, -np.inf, np.inf, 0.0, 0.0]  # both NaN, values differ
    (got,) = interp_columns(xs, field[None], x.T[None], axis=2)[:, :, 0]
    want = [np.interp(x[0, j], xs, field[j]) for j in range(n)]
    assert got.tobytes() == np.array(want).tobytes()
    assert math.copysign(1.0, got[0]) == -1.0  # below the grid: the first value, -0.0
    assert got[3] == got[4] == 8.0 and math.isnan(got[5])
    assert got[6] == np.inf and got[7] == np.inf and math.isnan(got[8])


_POINT = st.one_of(st.floats(-5.0, 5.0), st.sampled_from([-0.0, math.inf, -math.inf]))


@settings(max_examples=300, deadline=None)
@given(
    coefficients=st.lists(
        st.one_of(st.floats(-3.0, 3.0), st.just(-0.0), st.integers(-3, 3)), min_size=1, max_size=6
    ),
    points=st.lists(_POINT, min_size=1, max_size=12),
    shape=st.sampled_from(["one point", "paths", "paths by nodes"]),
)
def test_polynomial_payoff_is_the_horner_loop_bit_for_bit(coefficients, points, shape):
    w = np.array(points)
    w = {"one point": w[:1], "paths": w[:, None], "paths by nodes": np.stack([w, w[::-1]], axis=1)[..., None]}[shape]
    payoff = PolynomialPayoff(tuple(coefficients))
    # an infinite point meets a zero coefficient in both evaluators alike
    with np.errstate(all="ignore"):
        new = np.asarray(payoff(1.0, w))
        old = np.asarray(reference_polynomial_payoff(coefficients, w))
    assert new.dtype == old.dtype == np.float64
    assert new.shape == old.shape and new.tobytes() == old.tobytes()
