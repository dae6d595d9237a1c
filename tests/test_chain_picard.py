"""The step-major Picard pass of ``solve_chain_bsde("picard")``.

``picard_reference`` keeps the path-major solver: boolean column masks, an
inner loop over every state and ``np.isin`` stop indices.  The solver walks
contiguous ``(nodes, paths)`` rows over the free states only, and must agree
with it bit for bit on every output and on the failure message.
"""

import numpy as np
import pytest

from tcbsde.chain import (
    ChainBSDEProblem,
    GammaBalancedDriver,
    MarkovChainModel,
    solve_chain_bsde,
)
from tcbsde.errors import SchemeError
from tcbsde.timechange import LINEAR, SampledPath, TimeGrid

from picard_reference import reference_picard_solve
from util import per_time


def balanced_problem(A, grid, hitting, terminal, *, rates=None, c=0.3, initial=0):
    # f = -c y + z . (eta - A x) with eta = 0.8 A x: y- and z-dependent, gamma 0.8
    N = A.shape[0]
    rate_fn = rates or (lambda t: A)

    def eta(t, i, z, zp):
        return 0.8 * rate_fn(t)[:, i]

    def f(t, i, y, z):
        return -c * y + float(z @ (eta(t, i, z, None) - rate_fn(t)[:, i]))

    return ChainBSDEProblem(
        model=MarkovChainModel(N, rate_fn, initial, rate_bound=float(np.max(-np.diag(A))) * 1.5),
        driver=GammaBalancedDriver(
            f=f, eta=eta, gamma=0.8,
            c_path=SampledPath(grid, np.full(grid.n_nodes, c), LINEAR),
            c1=0.0, c2=0.0, beta_hat=0.0, beta=1.0, beta_tilde=1.0,
            k1=lambda t: 1.0, k2=lambda t: 1.0,
        ),
        hitting_set=frozenset(hitting),
        terminal_fn=terminal,
        markovian=True,
    )


def three_state():
    # the benchmark's problem: state 2 absorbs, terminal 1
    A = np.array([[-2.0, 1.0, 0.0], [1.5, -2.0, 0.0], [0.5, 1.0, 0.0]])
    grid = TimeGrid.uniform(8.0, 161)
    return balanced_problem(A, grid, {2}, lambda t, i: 1.0), grid


def hit_between_free():
    # state 1 is the hitting state, with free states on both sides of it;
    # the rates vary in time (the bound covers t <= 3)
    A = np.array([
        [-1.0, 0.4, 0.3, 0.2],
        [0.4, -1.0, 0.3, 0.3],
        [0.3, 0.3, -1.0, 0.5],
        [0.3, 0.3, 0.4, -1.0],
    ])

    def rates(t):
        return A * per_time(1.0 + 0.1 * t)

    grid = TimeGrid.uniform(3.0, 61)
    return balanced_problem(A * 1.3, grid, {1}, lambda t, i: 2.0 - 0.1 * i, rates=rates), grid


def two_hitting_states():
    # start in 1, stop on entering 0 or 3, each with its own terminal value
    A = np.array([
        [-1.0, 0.5, 0.2, 0.0],
        [0.5, -1.2, 0.6, 0.0],
        [0.5, 0.4, -1.0, 0.0],
        [0.0, 0.3, 0.2, 0.0],
    ])
    grid = TimeGrid.uniform(4.0, 81)
    return balanced_problem(A, grid, {0, 3}, lambda t, i: 3.0 if i == 3 else -1.0, initial=1), grid


def all_truncated():
    # no rate leads into the hitting state 2: every path runs to the horizon
    A = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
    grid = TimeGrid.uniform(2.0, 41)
    return balanced_problem(A, grid, {2}, lambda t, i: 0.5 + i), grid


def time_and_state_terminal():
    # the terminal reads the stop time and the state it stops in
    A = np.array([[-1.5, 1.0, 0.5], [1.0, -1.5, 1.0], [0.5, 0.5, -1.5]])
    grid = TimeGrid.uniform(2.0, 41)
    return balanced_problem(A, grid, {2}, lambda t, i: 1.0 + 0.5 * t - 0.25 * i * t), grid


def zero_d_driver():
    # time-varying rates, and a driver that returns a NumPy 0-d array: the
    # fixed point then runs on NumPy scalars, not on Python floats
    A = np.array([[-1.5, 1.0, 0.5], [1.0, -1.5, 1.0], [0.5, 0.5, -1.5]])

    def rates(t):
        return A * per_time(1.0 + 0.25 * np.sin(t))

    grid = TimeGrid.uniform(3.0, 61)
    problem = balanced_problem(A * 1.25, grid, {2}, lambda t, i: 1.0 - 0.5 * i, rates=rates)
    f = problem.driver.f
    problem.driver.f = lambda t, i, y, z: np.asarray(f(t, i, y, z))
    return problem, grid


PROBLEMS = {
    "three-state": three_state,
    "hit-between-free": hit_between_free,
    "two-hitting-states": two_hitting_states,
    "all-truncated": all_truncated,
    "time-and-state-terminal": time_and_state_terminal,
    "zero-d-driver": zero_d_driver,
}


@pytest.mark.parametrize("build", PROBLEMS.values(), ids=PROBLEMS.keys())
@pytest.mark.parametrize("seed", [1, 2])
def test_picard_matches_path_major_reference_bit_for_bit(build, seed):
    problem, grid = build()
    got = solve_chain_bsde(problem, "picard", grid, paths=300, seed=seed)
    ref = reference_picard_solve(problem, grid, 300, seed)
    for name in ("state_values", "path_Y", "path_states", "stop_idx"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    assert got.metadata == ref.metadata
    assert got.path_states.shape == got.path_Y.shape == (300, grid.n_nodes)


def test_reference_problems_cover_their_cases():
    sols = {}
    for name, build in PROBLEMS.items():
        problem, grid = build()
        sols[name] = solve_chain_bsde(problem, "picard", grid, paths=300, seed=1)
    assert sols["all-truncated"].metadata["truncated_fraction"] == 1.0
    for name in ("hit-between-free", "two-hitting-states", "time-and-state-terminal", "zero-d-driver"):
        assert sols[name].metadata["truncated_fraction"] < 1.0, name
    problem, _ = zero_d_driver()
    out = problem.driver.f(0.5, 0, 1.0, np.zeros(3))
    assert type(out) is np.ndarray and out.ndim == 0
    assert not np.array_equal(problem.model.rates(0.0), problem.model.rates(1.0))
    S, stop = sols["two-hitting-states"].path_states, sols["two-hitting-states"].stop_idx
    stopped = stop < S.shape[1] - 1
    assert set(S[stopped, stop[stopped]].tolist()) == {0, 3}


def test_non_convergence_raises_the_reference_message():
    # f = -50 y with a declared c_path of 1 passes the guard and then diverges
    problem, grid = all_truncated()
    problem.driver.f = lambda t, i, y, z: -50.0 * y
    problem.driver.c_path = SampledPath(grid, np.ones(grid.n_nodes), LINEAR)
    with pytest.raises(SchemeError) as got:
        solve_chain_bsde(problem, "picard", grid, paths=100, seed=0)
    with pytest.raises(SchemeError) as ref:
        reference_picard_solve(problem, grid, 100, 0)
    assert str(got.value) == str(ref.value)
    assert "did not converge" in str(got.value)
