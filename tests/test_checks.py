"""The two input rules every layer shares: a count is an integer, a positive number is finite.

``check_count`` and ``check_positive`` on their own, then each entry point
that reads a count or a positive number through them, on the inputs that
an unchecked read would misread: a fractional or ``bool`` count, a NaN or
infinite floor, horizon or time.
"""

import math

import numpy as np
import pytest

from tcbsde.chain import (
    ChainPath,
    MarkovChainModel,
    check_gamma_balanced,
    occupancy,
    simulate_chain,
    simulate_killed_chain,
)
from tcbsde.errors import (
    ConfigError,
    InvariantError,
    PreconditionError,
    SchemeError,
    check_count,
    check_positive,
)
from tcbsde.timechange import TimeGrid
from tcbsde.wiener import (
    check_uniform_lipschitz,
    simulate_brownian,
    solve_lsmc,
    solve_picard_oracle,
)

from test_chain import flat_driver, two_state_model
from util import coeffs_on, deadline, grid_uniform, linear_problem


# ---------------------------------------------------------------------------
# the two rules
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value", [1, 7, np.int64(3), np.uint8(2), np.int32(1)])
def test_count_accepts_python_and_numpy_integers(value):
    out = check_count("n", value)
    assert type(out) is int and out == value


@pytest.mark.parametrize(
    "value", [0, -1, 2.5, 3.0, np.float64(3.0), True, False, None, "3", math.nan]
)
def test_count_rejects_what_is_not_a_positive_integer(value):
    with pytest.raises(PreconditionError, match=r"n must be a positive integer, got "):
        check_count("n", value)


@pytest.mark.parametrize(
    "least, good, bad, wording",
    [
        (0, 0, -1, "a non-negative integer"),
        (2, 2, 1, "an integer of at least 2"),
    ],
)
def test_count_takes_a_lower_limit_and_an_error_class(least, good, bad, wording):
    assert check_count("n", good, least=least, error=ConfigError) == good
    with pytest.raises(ConfigError, match=f"n must be {wording}, got {bad}"):
        check_count("n", bad, least=least, error=ConfigError)


@pytest.mark.parametrize("value", [1e-300, 0.5, 3, np.float32(0.25), np.float64(2.0), np.int64(4)])
def test_positive_accepts_finite_positive_reals(value):
    out = check_positive("h", value)
    assert type(out) is float and out == value


@pytest.mark.parametrize("value", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, np.float64("nan"), True, None, "1"])
def test_positive_rejects_nan_infinity_and_non_positive_values(value):
    with pytest.raises(InvariantError, match="h must be positive and finite, got "):
        check_positive("h", value, error=InvariantError)


# ---------------------------------------------------------------------------
# counts at the entry points
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("iterations", [0, -3, 2.5], ids=["zero", "negative", "fraction"])
def test_oracle_takes_a_positive_integer_sweep_count(iterations):
    # unchecked, 0 and -3 would run one sweep and 2.5 fail as a bare TypeError
    g = grid_uniform(1.0, 6)
    prob = linear_problem(g, 0.5, 0.0, (1.0,))
    W = simulate_brownian(g, 20, 1, seed=0)
    with pytest.raises(PreconditionError, match="iterations must be a positive integer"):
        solve_picard_oracle(prob, W, iterations=iterations, n_space=21)


@pytest.mark.parametrize("n_nodes", [3.9, 1, 2.0, True], ids=["fraction", "one", "float", "bool"])
def test_uniform_grid_takes_an_integer_node_count_of_at_least_two(n_nodes):
    # unchecked, 3.9 would be truncated to a 3-node grid
    with pytest.raises(InvariantError, match="node count must be an integer of at least 2"):
        TimeGrid.uniform(1.0, n_nodes)


def test_probe_counts_are_positive_integers():
    # unchecked, the Lipschitz probe would run on 2.5 and the balance probe fail as a bare TypeError
    with pytest.raises(PreconditionError, match="probe count must be a positive integer"):
        check_uniform_lipschitz(lambda t, w, y, z: np.zeros(y.shape), 2.5, 1.0)
    model = two_state_model()
    driver = flat_driver(TimeGrid.uniform(1.0, 11), model)
    for probes in (2.5, 0):
        with pytest.raises(PreconditionError, match="probe count must be a positive integer"):
            check_gamma_balanced(driver, model, probes=probes)


# ---------------------------------------------------------------------------
# positive numbers at the entry points
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t_max", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
def test_balance_probe_time_range_is_positive_and_finite(t_max):
    # unchecked, NaN and infinity end in a bare OverflowError and -1.0 in a bare ValueError
    model = two_state_model()
    driver = flat_driver(TimeGrid.uniform(1.0, 11), model)
    with pytest.raises(PreconditionError, match="t_max must be positive and finite"):
        check_gamma_balanced(driver, model, probes=5, t_max=t_max)


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -0.1], ids=["nan", "inf", "zero", "negative"])
def test_coefficient_floor_is_positive_and_finite(eps):
    # a NaN floor would give an all-NaN alpha_sq that every comparison passes
    g = grid_uniform(1.0, 11)
    with pytest.raises(InvariantError, match="eps floor must be positive and finite"):
        coeffs_on(g, 1.0, 0.0, eps=eps)


def test_nan_floor_no_longer_turns_off_the_contraction_guard():
    # f = 50 y on steps of 0.1: dt * max Lipschitz = 5 >= 1.  With a NaN
    # floor the guard would pass, and LSMC return Y_0 = 6.05e7
    g = grid_uniform(1.0, 11)
    W = simulate_brownian(g, 200, 1, seed=0)
    with pytest.raises(SchemeError, match="dt \\* max Lipschitz"):
        solve_lsmc(linear_problem(g, 50.0, 0.0, (1.0,), eps=0.05), W)
    with pytest.raises(InvariantError, match="eps floor"):
        linear_problem(g, 50.0, 0.0, (1.0,), eps=math.nan)


@pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
def test_chain_horizon_is_positive_and_finite(horizon):
    # NaN would give paths with no jumps and a killed-chain estimate of 0.0,
    # and an infinite horizon would never return
    model = two_state_model()
    with deadline(10), pytest.raises(PreconditionError, match="horizon must be positive and finite"):
        simulate_chain(model, horizon, 10, 0)
    with deadline(10), pytest.raises(PreconditionError, match="horizon must be positive and finite"):
        simulate_killed_chain(model, lambda t, i: 0.5, 1, horizon, 10, 0, 0.5)


def test_infinite_horizon_on_a_chain_that_never_jumps_returns():
    # every candidate is rejected, so the batch would never empty
    idle = MarkovChainModel(2, lambda t: np.zeros((2, 2)), 0, rate_bound=1.0)
    with deadline(10), pytest.raises(PreconditionError, match="horizon"):
        simulate_chain(idle, math.inf, 5, 0)


def test_nan_times_are_not_read_as_after_the_last_jump():
    # a NaN time would read the state after each path's last jump
    paths = simulate_chain(two_state_model(), 1.0, 50, 3)
    with pytest.raises(PreconditionError, match="without NaN"):
        occupancy(paths, math.nan, 2)
    with pytest.raises(PreconditionError, match="without NaN"):
        paths.states_at([0.1, math.nan])
    path = ChainPath(np.array([0.5]), np.array([0, 1]))
    with pytest.raises(PreconditionError, match="not NaN"):
        path.state_at(math.nan)
    with pytest.raises(PreconditionError, match="not NaN"):
        path.state_at([0.2, math.nan])
    assert path.state_at([0.2, math.inf]).tolist() == [0, 1]
