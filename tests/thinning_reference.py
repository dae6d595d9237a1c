"""Path-by-path Lewis-Shedler thinning: the slow reference for the batched kernel in ``chain``.

One Python iteration per candidate event and one scalar ``model.rates(t)``
call each; the law is the same as the kernel's, the random stream is not.
"""

import math

import numpy as np

from tcbsde.chain import ChainPath
from tcbsde.errors import InvariantError


def _next_state(A, state, exit_rate, rng):
    p = A[:, state].copy()
    p[state] = 0.0
    return int(np.searchsorted(np.cumsum(p), rng.uniform() * exit_rate))


def reference_simulate_chain(model, horizon, paths, seed):
    rng = np.random.default_rng(seed)
    bound = float(model.rate_bound)
    out = []
    for _ in range(paths):
        t = 0.0
        state = int(model.initial)
        jumps, states = [], [state]
        while True:
            t += rng.exponential(1.0 / bound)
            if t >= horizon:
                break
            A = model.rates(t)
            exit_rate = -A[state, state]
            if exit_rate > bound * (1.0 + 1e-9):
                raise InvariantError(f"exit rate {exit_rate} exceeds the bound {bound} at t={t}")
            if rng.uniform() * bound < exit_rate:
                state = _next_state(A, state, exit_rate, rng)
                jumps.append(t)
                states.append(state)
        out.append(ChainPath(np.array(jumps), np.array(states), horizon))
    return out


def reference_killed_chain(model, loss_rate, target, horizon, paths, seed, loss_bound):
    rng = np.random.default_rng(seed)
    bound = float(model.rate_bound + loss_bound)
    reached = killed = 0
    for _ in range(paths):
        t = 0.0
        state = int(model.initial)
        while True:
            if state == target:
                reached += 1
                break
            t += rng.exponential(1.0 / bound)
            if t >= horizon:
                break
            A = model.rates(t)
            exit_rate = -A[state, state]
            kill_rate = loss_rate(t, state)
            if exit_rate + kill_rate > bound * (1.0 + 1e-9):
                raise InvariantError("total intensity exceeds the thinning bound")
            u = rng.uniform() * bound
            if u < exit_rate:
                state = _next_state(A, state, exit_rate, rng)
            elif u < exit_rate + kill_rate:
                killed += 1
                break
    est = reached / paths
    se = math.sqrt(max(est * (1.0 - est), 1e-12) / paths)
    return est, se, killed / paths
