"""The backward ODE of ``solve_chain_bsde("markov-ode")``.

A clocked problem is solved as its base problem read at ``s = inv(u)``, with
one clock read per distinct right-hand-side time; ``ode_reference``
evaluates the same problem closure by closure, and the two must agree bit
for bit.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from tcbsde import chain
from tcbsde.chain import (
    ChainBSDEProblem,
    GammaBalancedDriver,
    MarkovChainModel,
    build_message_problem,
    chain_clock,
    solve_chain_bsde,
    transform_chain_problem,
)
from tcbsde.errors import SchemeError
from tcbsde.timechange import LINEAR, SampledPath, TimeChangeMap, TimeGrid

from ode_reference import reference_ode_solve
from util import deadline, per_time

# the backward ODE's fixed step tolerances
RTOL, ATOL = 1e-8, 1e-10


def line_model():
    A = np.array([[-1.0, 0.0], [1.0, 0.0]])
    return MarkovChainModel(2, lambda t: A, 0, rate_bound=1.0)


def clocked_message(loss, horizon=8.0, nodes=201):
    problem = build_message_problem(line_model(), loss, 1, TimeGrid.uniform(horizon, nodes))
    clock = chain_clock(problem.driver.c_path, problem.driver.c2, target="image")
    return transform_chain_problem(problem, clock), clock.target_grid


def three_state_direct():
    A = np.array([[-2.0, 1.0, 0.0], [1.5, -2.0, 0.0], [0.5, 1.0, 0.0]])
    grid = TimeGrid.uniform(8.0, 161)

    def eta(t, i, z, zp):
        return 0.8 * A[:, i]

    def f(t, i, y, z):
        return -0.3 * y + float(z @ (eta(t, i, z, None) - A[:, i]))

    problem = ChainBSDEProblem(
        model=MarkovChainModel(3, lambda t: A, 0, rate_bound=2.0),
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
    return problem, grid


def twice_transformed():
    once, grid = clocked_message(lambda t, i: 1.0 + t, horizon=4.0, nodes=101)
    # a second clock on the first one's scale, with a density that grows
    second = chain_clock(SampledPath(grid, 1.0 + 0.5 * grid.nodes, LINEAR), 0.0, target="image")
    return transform_chain_problem(once, second), second.target_grid


def time_varying_terminal():
    # the chain leaves the target again, and the terminal on the hitting set
    # depends on time, so the clock reads of the terminal matter
    A = np.array([[-1.0, 2.0], [1.0, -2.0]])
    model = MarkovChainModel(2, lambda t: A, 0, rate_bound=2.0)
    grid = TimeGrid.uniform(3.0, 31)
    problem = build_message_problem(model, lambda t, i: 0.5 + 0.2 * t, target=1, horizon_grid=grid)
    problem = replace(problem, terminal_fn=lambda t, i: (1.0 + t) * (i + 1.0))
    clock = chain_clock(problem.driver.c_path, problem.driver.c2, target="image")
    return transform_chain_problem(problem, clock), clock.target_grid


def split_free_states():
    # the hitting set {1, 3} splits the free states 0, 2 and 4 into three runs
    A = np.array([
        [-2.0, 0.5, 0.3, 0.0, 0.4],
        [0.8, -1.0, 0.6, 0.0, 0.3],
        [0.7, 0.2, -1.5, 0.0, 0.5],
        [0.2, 0.1, 0.4, 0.0, 0.2],
        [0.3, 0.2, 0.2, 0.0, -1.4],
    ])
    grid = TimeGrid.uniform(2.0, 41)
    problem = build_message_problem(
        MarkovChainModel(5, lambda t: A * per_time(1.0 + 0.3 * t), 0, rate_bound=3.0),
        lambda t, i: 0.5 + 0.1 * i * t, target=3, horizon_grid=grid,
    )
    problem = replace(
        problem,
        hitting_set=frozenset({1, 3}),
        terminal_fn=lambda t, i: (1.0 + t) * (i + 1.0),
    )
    clock = chain_clock(problem.driver.c_path, problem.driver.c2, target="image")
    return transform_chain_problem(problem, clock), clock.target_grid


CASES = {
    "constant-loss": lambda: clocked_message(lambda t, i: 1.0),
    "linear-loss": lambda: clocked_message(lambda t, i: 1.0 + t),
    "quadratic-loss": lambda: clocked_message(lambda t, i: 1.0 + t * t),
    "three-state-direct": three_state_direct,
    "twice-transformed": twice_transformed,
    "time-varying-terminal": time_varying_terminal,
    "split-free-states": split_free_states,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_ode_matches_closure_reference(case):
    problem, grid = CASES[case]()
    sol = solve_chain_bsde(problem, "markov-ode", grid)
    values, tail, nfev = reference_ode_solve(problem, grid, RTOL, ATOL)
    assert np.array_equal(sol.state_values, values)
    assert sol.metadata["tail_probability"] == tail
    assert sol.metadata["rhs_evaluations"] == nfev
    # the initial step takes two calls, and every step attempt six
    steps, rejected = sol.metadata["steps"], sol.metadata["rejected_steps"]
    assert steps > 0 and nfev == 2 + 6 * (steps + rejected)


def test_clocked_rhs_reads_the_clock_once(monkeypatch):
    # one scalar clock read per distinct evaluation time, for the inverse and
    # the density alike, and none at a repeated time: a step's last stage and
    # its closing call both evaluate at t + h, so every step attempt repeats
    # one time.  The solve's own array read of the clock is the hitting set's
    # terminal values', at the grid nodes (the generator check reads through
    # the rate callback, bound before the patch), and nothing in the solve
    # reads a SampledPath
    problem, grid = CASES["linear-loss"]()
    reads = [0]
    per_call = []
    array_reads = []
    at_calls = []
    read, at = TimeChangeMap.inverse_density_at, SampledPath.at

    def counting_read(self, u):
        if isinstance(u, np.ndarray):
            array_reads.append(u)
        else:
            reads[0] += 1
        return read(self, u)

    def counting_at(self, t):
        at_calls.append(t)
        return at(self, t)

    def counting_rk45(fun, *args):
        def rhs(r, x):
            before = reads[0], len(array_reads)
            out = fun(r, x)
            per_call.append((r, reads[0] - before[0], len(array_reads) - before[1]))
            return out

        return rk45(rhs, *args)

    rk45 = chain.rk45
    monkeypatch.setattr(TimeChangeMap, "inverse_density_at", counting_read)
    monkeypatch.setattr(SampledPath, "at", counting_at)
    monkeypatch.setattr(chain, "rk45", counting_rk45)
    sol = solve_chain_bsde(problem, "markov-ode", grid)
    meta = sol.metadata
    assert len(per_call) == meta["rhs_evaluations"] > 0
    times = [r for r, _, _ in per_call]
    assert [n for _, n, _ in per_call] == [int(k == 0 or r != times[k - 1]) for k, r in enumerate(times)]
    assert sum(n == 0 for _, n, _ in per_call) == meta["steps"] + meta["rejected_steps"]
    assert all(m == 0 for _, _, m in per_call)
    assert len(array_reads) == 1 and np.array_equal(array_reads[0], grid.nodes)
    assert at_calls == []


def test_clocked_tail_is_the_direct_tail():
    # the no-hit tail through the clock of a loss 1 + t: the clock and its
    # inverse are exact between nodes, so the transformed rates carry the
    # original intensity and the tail is the sub-generator's, at 31 nodes
    A = np.array([[-2.0, 1.0, 0.0], [1.5, -2.0, 0.0], [0.5, 1.0, 0.0]])
    model = MarkovChainModel(3, lambda t: A, 0, rate_bound=2.0)
    problem = build_message_problem(model, lambda t, i: 1.0 + t, 2, TimeGrid.uniform(3.0, 31))
    clock = chain_clock(problem.driver.c_path, problem.driver.c2, target="image")
    sol = solve_chain_bsde(transform_chain_problem(problem, clock), "markov-ode", clock.target_grid)
    exact = expm(A[:2, :2] * 3.0)[:, 0].sum()
    assert abs(sol.metadata["tail_probability"] - exact) <= 1e-8


def test_clocked_message_value_is_the_closed_form():
    # a unit hop against the loss 1 + t reaches the target with probability
    # e^2 sqrt(2 pi) (Phi(T + 2) - Phi(2)), through the clock at 51 nodes
    horizon = 8.0
    problem, grid = clocked_message(lambda t, i: 1.0 + t, horizon=horizon, nodes=51)
    sol = chain.map_chain_solution(solve_chain_bsde(problem, "markov-ode", grid), problem.clock)
    exact = math.exp(2.0) * math.sqrt(2.0 * math.pi) * 0.5 * (
        math.erfc(math.sqrt(2.0)) - math.erfc((horizon + 2.0) / math.sqrt(2.0))
    )
    assert abs(sol.value_at(0.0, 0) - exact) <= 1e-8


def test_clocked_linear_loss_solve_rejects_few_steps():
    # the clocked right-hand side is smooth between the clock's nodes and has
    # no kink at them, so the stepper rejects almost no step; a sampled,
    # linearly interpolated inverse put a slope jump at every node (92
    # rejected steps of 308 attempts)
    problem, grid = CASES["linear-loss"]()
    assert solve_chain_bsde(problem, "markov-ode", grid).metadata["rejected_steps"] <= 5


def with_counted_rates(problem, seen):
    # the base model's rate_fn, recording the dimension of each time argument
    clocked = isinstance(problem, chain._ClockedChainProblem)
    base = problem.base if clocked else problem
    rate_fn = base.model.rate_fn

    def counting(t):
        seen.append(np.ndim(t))
        return rate_fn(t)

    base = replace(base, model=replace(base.model, rate_fn=counting))
    return replace(problem, base=base) if clocked else base


@pytest.mark.parametrize(
    "case", ["constant-loss", "linear-loss", "quadratic-loss", "three-state-direct", "split-free-states"]
)
def test_markov_ode_reads_the_rates_once_per_solve_or_per_distinct_time(case):
    problem, grid = CASES[case]()
    seen = []
    sol = solve_chain_bsde(with_counted_rates(problem, seen), "markov-ode", grid)
    values, tail, nfev = reference_ode_solve(problem, grid, RTOL, ATOL)
    assert np.array_equal(sol.state_values, values) and sol.metadata["tail_probability"] == tail
    meta = sol.metadata
    assert meta["rhs_evaluations"] == nfev
    # the generator check and the constancy test read arrays
    assert seen[:2] == [1, 1]
    scalar = seen[2:]
    assert set(scalar) <= {0}
    if case == "split-free-states":
        # time-varying: one read per distinct time, and a step attempt's last
        # stage and closing call share theirs
        assert len(scalar) == nfev - meta["steps"] - meta["rejected_steps"]
    else:
        # time-constant: read once, plus the m = N check of the constancy
        # test on two-state chains, whatever the right-hand-side count
        assert len(scalar) == (2 if problem.model.n_states == 2 else 1)


def test_clocked_problem_views_follow_the_base():
    problem, grid = CASES["time-varying-terminal"]()
    base, clock = problem.base, problem.clock
    s = float(clock.inverse_at(1.0))
    assert problem.terminal_fn(1.0, 1) == base.terminal_fn(s, 1)
    assert problem.hitting_set == base.hitting_set and problem.markovian
    # the views are derived: replace can swap the base, never a view
    with pytest.raises(ValueError):
        replace(problem, terminal_fn=lambda t, i: 0.0)
    other = replace(problem, base=replace(base, terminal_fn=lambda t, i: 3.0 * t))
    assert other.terminal_fn(1.0, 1) == 3.0 * s
    assert other.model is not problem.model


def test_nan_driver_fails_without_hanging():
    # the driver turns NaN halfway back from the horizon: the step size
    # shrinks below the float spacing and the solve must say so
    problem, grid = three_state_direct()
    f = problem.driver.f

    def f_nan(t, i, y, z):
        return math.nan if t < 4.0 else f(t, i, y, z)

    problem = replace(problem, driver=replace(problem.driver, f=f_nan))
    with deadline(20), pytest.raises(SchemeError, match="backward ODE integration failed"):
        solve_chain_bsde(problem, "markov-ode", grid)


def test_markov_ode_reach_probability_at_its_tolerances():
    # reach probability (1 - e^-4) / 2 at horizon 2: exit and loss rate both 1
    grid = TimeGrid.uniform(2.0, 21)
    problem = build_message_problem(line_model(), lambda t, i: 1.0, 1, grid)
    assert solve_chain_bsde(problem, "markov-ode", grid).value_at(0.0, 0) == pytest.approx(
        (1.0 - math.exp(-4.0)) / 2.0, rel=1e-6
    )
