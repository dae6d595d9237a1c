"""Shared builders for the test suite."""

import signal
from contextlib import contextmanager

import numpy as np

from tcbsde.timechange import (
    LINEAR,
    CoefficientProcesses,
    IncreasingProcess,
    SampledPath,
    TimeGrid,
    build_phi,
)
from tcbsde.wiener import PolynomialPayoff, TerminalRule, WienerBSDEProblem


def path(grid, values):
    return SampledPath(grid, np.broadcast_to(np.asarray(values, dtype=float), (grid.n_nodes,)).copy(), LINEAR)


def coeffs_on(grid, r, u, eps=0.5, mode="lipschitz", l=None):
    rp, up = path(grid, r), path(grid, u)
    if mode == "lipschitz":
        return CoefficientProcesses.lipschitz(rp, up, eps=eps)
    return CoefficientProcesses.monotone(rp, path(grid, l), up, eps=eps)


def clock_on(grid, alpha_sq_values, eps=0.5, target=None):
    c = coeffs_on(grid, alpha_sq_values, 0.0, eps=eps)
    return build_phi(c, IncreasingProcess.identity(grid), target=target)


def linear_problem(grid, r, u, payoff_coeffs, eps=0.05):
    """Scalar linear equation f = r(t) y + u(t) z with polynomial terminal value."""
    c = coeffs_on(grid, r, u, eps=eps)

    def driver(t, w, y, z):
        return float(c.r.at(t)) * y + float(c.u.at(t)) * z[:, 0]

    return WienerBSDEProblem(
        k=1,
        d=1,
        driver=driver,
        coeffs=c,
        terminal=TerminalRule(kind="fixed"),
        payoff=PolynomialPayoff(tuple(payoff_coeffs)),
    )


def rate_stack(t, rows):
    """A rate matrix ``(N, N)`` at one time, or a stack ``(m, N, N)`` at a 1-d array of m times.

    ``rows`` lists the matrix's rows; each entry is a number or an array
    shaped like ``t``, so one formula serves both.
    """
    shape = np.shape(t)
    return np.stack([np.stack([np.broadcast_to(e, shape) for e in row], axis=-1) for row in rows], axis=-2)


def per_time(x):
    """``x`` with two trailing axes, to scale one rate matrix or a stack of them."""
    return np.asarray(x)[..., None, None]


def grid_uniform(t_end, n):
    return TimeGrid.uniform(t_end, n)


@contextmanager
def deadline(seconds):
    """Fail with TimeoutError instead of hanging past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
