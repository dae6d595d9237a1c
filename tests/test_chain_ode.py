"""The backward ODE of ``solve_chain_bsde("markov-ode")``.

A clocked problem is solved as its base problem read at ``s = inv(u)``, with
one clock read per right-hand side; ``ode_reference`` evaluates the same
problem closure by closure, and the two must agree bit for bit.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

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
    # one scalar clock read per call, for the inverse and the density alike;
    # the only SampledPath.at calls of the solve are the one array read of
    # the generator check, at the grid nodes and at their inverse; the
    # closures read the clock five times: rates twice, the driver twice and
    # the terminal once
    problem, grid = CASES["linear-loss"]()
    reads = [0]
    per_call = []
    at_calls = []
    read, at = TimeChangeMap.inverse_density_at, SampledPath.at

    def counting_read(self, u):
        reads[0] += 1
        return read(self, u)

    def counting_at(self, t):
        at_calls.append(t)
        return at(self, t)

    def counting_rk45(fun, *args):
        def rhs(r, x):
            before = reads[0]
            out = fun(r, x)
            per_call.append(reads[0] - before)
            return out

        return rk45(rhs, *args)

    rk45 = chain.rk45
    monkeypatch.setattr(TimeChangeMap, "inverse_density_at", counting_read)
    monkeypatch.setattr(SampledPath, "at", counting_at)
    monkeypatch.setattr(chain, "rk45", counting_rk45)
    sol = solve_chain_bsde(problem, "markov-ode", grid)
    assert len(per_call) == sol.metadata["rhs_evaluations"] > 0
    assert set(per_call) == {1}
    assert [type(t) for t in at_calls] == [np.ndarray, np.ndarray]
    assert np.array_equal(at_calls[0], grid.nodes)
    assert np.array_equal(at_calls[1], at(problem.clock.inverse, grid.nodes))


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
