"""The Picard pass of ``solve_chain_bsde("picard")``, from transition counts.

``picard_reference`` keeps the path-major solver: boolean column masks, an
inner loop over every state, a tall ``np.linalg.lstsq`` per (step, state)
and ``np.isin`` stop indices.  The solver works from one count table and
N-row solves, so its values agree with the reference to 1e-12 (relative to
values above 1), its states, stop indices and metadata exactly, and its
failure message word for word.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcbsde.chain import (
    ChainBSDEProblem,
    GammaBalancedDriver,
    MarkovChainModel,
    _step_fits,
    _thin,
    solve_chain_bsde,
)
from tcbsde.errors import SchemeError
from tcbsde.timechange import LINEAR, SampledPath, TimeGrid

from picard_reference import reference_picard_solve, reference_states_at, reference_stop_indices
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
    # the name is kept; the values now agree to 1e-12 (the count-weighted
    # mean and the N-row solve round differently from the per-path ones),
    # the states and stop indices still bit for bit
    problem, grid = build()
    got = solve_chain_bsde(problem, "picard", grid, paths=300, seed=seed)
    ref = reference_picard_solve(problem, grid, 300, seed)
    for name in ("state_values", "path_Y"):
        g, r = getattr(got, name), getattr(ref, name)
        assert np.all(np.abs(g - r) <= 1e-12 * np.maximum(1.0, np.abs(r))), name
    for name in ("path_states", "stop_idx"):
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


@pytest.mark.parametrize("build", PROBLEMS.values(), ids=PROBLEMS.keys())
def test_transition_counts_match_the_reference_masks(build):
    problem, grid = build()
    N, n = problem.model.n_states, grid.n_nodes
    log, _, _ = _thin(problem.model, grid.t_end, 300, 1)
    S = reference_states_at(log, grid.nodes)
    stop = reference_stop_indices(S, problem.hitting_set, grid)
    want = np.zeros((n - 1, N, N))
    for j in range(n - 1):
        for i in range(N):
            sel = (stop > j) & (S[:, j] == i)
            want[j, i] = np.bincount(S[sel, j + 1], minlength=N)
    got, _, _ = _step_fits(S.T, stop, problem.model.rates(grid.nodes[:-1]), grid.steps)
    assert np.array_equal(got, want)
    # every path running at a step is counted once, and none in a hitting state
    assert np.array_equal(got.sum(axis=(1, 2)), (stop[None, :] > np.arange(n - 1)[:, None]).sum(axis=1))
    assert not got[:, sorted(problem.hitting_set)].any()


_FIVE = {"min_size": 5, "max_size": 5}


@settings(max_examples=200, deadline=None)
@given(
    N=st.integers(2, 5),
    i=st.integers(0, 4),
    out=st.lists(st.floats(0.0, 3.0), **_FIVE),
    n_k=st.lists(st.integers(0, 40), **_FIVE),
    v=st.lists(st.floats(-5.0, 5.0), **_FIVE),
    dt=st.floats(0.005, 0.2),
)
# a subnormal rate: unscaled, pinv's 1 / s overflows where lstsq gives 0
@example(N=2, i=1, out=[2.2250738585072014e-308, 0, 0, 0, 0], n_k=[0] * 5, v=[0.0] * 5, dt=0.125)
# a singular value 1e-14 of the largest, under lstsq's cutoff eps * 301 but
# over pinv's default 1e-15
@example(N=3, i=0, out=[0, 1.16e-13, 0, 0, 0], n_k=[300, 0, 1, 0, 0], v=[0.0, 0.0, 1.0, 0, 0], dt=0.005)
def test_count_weighted_solve_is_the_tall_lstsq(N, i, out, n_k, v, dt):
    # one state i with rates out of it, paths per next state, next values v
    i = i % N
    out, n_k, v = np.array(out[:N]), np.array(n_k[:N]), np.array(v[:N])
    out[i] = 0.0
    a = out.copy()
    a[i] = -out.sum()
    if not n_k.sum():
        n_k[i] = 1

    # one step of paths that all start in i and run on
    rows = np.repeat(np.arange(N), n_k)
    A = np.zeros((1, N, N))
    A[0, :, i] = a
    ST = np.stack([np.full(rows.size, i), rows])
    counts, Q, scale = _step_fits(ST, np.ones(rows.size, dtype=int), A, np.array([dt]))
    assert np.array_equal(counts[0, i], n_k)
    cond = float(counts[0, i] @ v) / n_k.sum()
    z = Q[0, i] @ (v - cond) / scale[0, i]

    eye = np.eye(N)
    dM = ((eye - eye[i]) - a * dt)[rows]
    tall, *_ = np.linalg.lstsq(dM, v[rows] - cond, rcond=None)
    # two backward-stable solves differ by up to about kappa * eps, so past a
    # condition number of 100 (over the singular values lstsq keeps) the
    # tolerance grows with it; in 100,000 random cases, some with rates down
    # to 1e-320, the largest gap was an eighteenth of it
    s = np.linalg.svd(dM, compute_uv=False)
    s = s[s > s[0] * np.finfo(float).eps * max(rows.size, N)]
    kappa = s[0] / s[-1] if s.size else 1.0
    # equal up to the all-ones direction, which the bracket does not see
    z, tall = z - z.mean(), tall - tall.mean()
    assert np.max(np.abs(z - tall)) <= 1e-12 * max(1.0, kappa / 100) * max(1.0, np.max(np.abs(tall)))
