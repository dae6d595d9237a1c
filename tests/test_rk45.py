"""The Dormand-Prince stepper of the backward chain ODE against SciPy's RK45.

``rk45`` must repeat ``solve_ivp(method="RK45", t_eval=...)`` bit for bit:
the same values at ``t_eval`` and the same number of right-hand-side calls.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from tcbsde._rk45 import rk45
from tcbsde.errors import SchemeError

from util import deadline


def assert_matches_scipy(fun, t_end, y0, t_eval, rtol, atol):
    ref = solve_ivp(fun, (0.0, t_end), y0, method="RK45", t_eval=t_eval, rtol=rtol, atol=atol)
    assert ref.success
    y, nfev, accepted, rejected = rk45(fun, t_end, y0, t_eval, rtol, atol)
    assert np.array_equal(ref.t, t_eval)
    assert y.shape == ref.y.shape and np.array_equal(y, ref.y)
    assert nfev == ref.nfev == 2 + 6 * (accepted + rejected)
    return accepted, rejected


def linear(M, b):
    return lambda t, y: M.dot(y) + b * math.cos(t)


def nonlinear(M, b):
    return lambda t, y: M.dot(np.tanh(y)) - 0.1 * y**3 + b * np.sin(t)


@st.composite
def systems(draw):
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    M = rng.normal(0.0, 1.0, (n, n)) - 1.5 * np.eye(n)
    b = rng.normal(0.0, 1.0, n)
    fun = draw(st.sampled_from([linear, nonlinear]))(M, b)
    t_end = draw(st.floats(0.05, 5.0))
    inner = np.sort(rng.uniform(0.0, t_end, draw(st.integers(0, 12))))
    t_eval = np.unique(np.concatenate(([0.0], inner, [t_end])))
    y0 = rng.normal(0.0, 2.0, n)
    rtol = 10.0 ** draw(st.floats(-10.0, -3.0))
    atol = 10.0 ** draw(st.floats(-12.0, -4.0))
    return fun, t_end, y0, t_eval, rtol, atol


@settings(max_examples=60, deadline=None)
@given(systems())
def test_bit_equal_to_solve_ivp(system):
    assert_matches_scipy(*system)


@st.composite
def stiff_linear_systems(draw):
    # eigenvalues of -300 to -2000 on a horizon of 0.5 to 1 put the explicit
    # stepper at its stability limit, where the controller rejects steps
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q = rng.normal(0.0, 1.0, (n, n))
    k = 10.0 ** draw(st.floats(2.5, 3.0))
    M = -k * (np.eye(n) + 0.5 * Q @ Q.T / n) + rng.normal(0.0, 1.0, (n, n))
    t_end = draw(st.floats(0.5, 1.0))
    t_eval = np.unique(np.concatenate(([0.0], np.sort(rng.uniform(0.0, t_end, 5)), [t_end])))
    rtol = 10.0 ** draw(st.floats(-4.0, -2.0))
    atol = 10.0 ** draw(st.floats(-7.0, -4.0))
    return linear(M, rng.normal(0.0, 1.0, n)), t_end, rng.normal(0.0, 2.0, n), t_eval, rtol, atol


@settings(max_examples=30, deadline=None)
@given(stiff_linear_systems())
def test_bit_equal_to_solve_ivp_through_rejected_steps(system):
    _, rejected = assert_matches_scipy(*system)
    assert rejected > 0


def test_bit_equal_through_rejected_steps():
    # a stiff pull toward cos(t) makes the explicit stepper reject steps
    fun = lambda t, y: -800.0 * (y - np.array([math.cos(t), math.sin(t)]))  # noqa: E731
    t_eval = np.linspace(0.0, 2.0, 9)
    _, rejected = assert_matches_scipy(fun, 2.0, np.array([3.0, -1.0]), t_eval, 1e-3, 1e-6)
    assert rejected > 0


def test_bit_equal_where_the_last_step_misses_the_end():
    # the last step starts at 0.0774685706322838, where t + (t_end - t) rounds
    # below t_end: SciPy evaluates the right-hand side there, and its
    # interpolant moves by a bit
    fun = linear(np.array([[-0.53610124]]), np.array([-0.31613945]))
    t_end = 0.8181621240354203
    t_eval = np.array([0.0, 0.0497, 0.0812, 0.0895, 0.1929, 0.2726, 0.7427, t_end])
    y0 = np.array([0.1008167770285261])
    assert_matches_scipy(fun, t_end, y0, t_eval, 1e-3, 2.4711127964648426e-06)


def test_bit_equal_with_rtol_below_the_floor():
    # SciPy raises rtol to 100 eps, with a warning
    fun = linear(np.array([[-1.0, 0.5], [0.2, -2.0]]), np.array([1.0, -0.5]))
    t_eval = np.linspace(0.0, 1.0, 5)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "At least one element of `rtol` is too small")
        assert_matches_scipy(fun, 1.0, np.array([1.0, 2.0]), t_eval, 1e-17, 1e-14)


def nan_after(t0):
    return lambda t, y: np.full_like(y, np.nan) if t > t0 else -y


@pytest.mark.parametrize(
    "fun",
    [
        nan_after(0.5),
        nan_after(0.0),
        lambda t, y: np.zeros_like(y) if t == 0.0 else np.full_like(y, np.nan),
    ],
    ids=["nan-midway", "nan-after-start", "zero-then-nan"],
)
def test_failing_right_hand_side_stops_like_solve_ivp(fun):
    y0, t_eval = np.array([1.0, -1.0]), np.array([0.0, 1.0])
    with np.errstate(all="ignore"):
        assert not solve_ivp(fun, (0.0, 1.0), y0, method="RK45", t_eval=t_eval).success
        with deadline(20), pytest.raises(SchemeError, match="below the float spacing"):
            rk45(fun, 1.0, y0, t_eval, 1e-3, 1e-6)


def test_nan_from_the_start_fails_instead_of_hanging():
    # SciPy's initial step is NaN here, and its step loop never ends
    with deadline(20), pytest.raises(SchemeError, match="step size nan"):
        rk45(lambda t, y: y * np.nan, 1.0, np.ones(3), np.array([0.0, 1.0]), 1e-6, 1e-9)
