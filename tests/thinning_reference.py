"""Path-by-path references for the batched code in ``chain``.

Lewis-Shedler thinning with one Python iteration per candidate event and one
scalar ``model.rates(t)`` call each; the law is the same as the kernel's, the
random stream is not.  The K-function probe reads its hitting times path by
path through ``ChainPath.state_at``.  The generator check sums the columns of
a rate stack with NumPy's middle-axis reduction ``A.sum(axis=1)``.
"""

import math

import numpy as np

from tcbsde.chain import ChainPaths, MarkovChainModel, simulate_chain
from tcbsde.errors import InvariantError


def reference_check_rate_batch(A, t, total, bound):
    m, N = A.shape[:2]
    finite = np.isfinite(A)
    if not finite.all():
        k = np.argmin(finite.reshape(m, -1).all(axis=1))
        raise InvariantError(f"rate matrix is not finite at t={t[k]}")
    negative = A < -1e-12
    diag = np.arange(N)
    negative[:, diag, diag] = False
    if negative.any():
        k = np.argmax(negative.reshape(m, -1).any(axis=1))
        raise InvariantError(f"negative off-diagonal rate at t={t[k]}")
    unbalanced = np.abs(A.sum(axis=1)) > 1e-9
    if unbalanced.any():
        k = np.argmax(unbalanced.any(axis=1))
        raise InvariantError(f"columns do not sum to zero at t={t[k]}")
    bad = np.flatnonzero(total > bound * (1.0 + 1e-9))
    if bad.size:
        k = bad[0]
        raise InvariantError(
            f"exit plus kill rate {total[k]} exceeds the thinning bound {bound} at t={t[k]}"
        )


def _next_state(A, state, exit_rate, rng):
    p = A[:, state].copy()
    p[state] = 0.0
    return int(np.searchsorted(np.cumsum(p), rng.uniform() * exit_rate))


def reference_simulate_chain(model, horizon, paths, seed):
    rng = np.random.default_rng(seed)
    bound = float(model.rate_bound)
    log_path, log_time, log_state = [], [], []
    for p in range(paths):
        t = 0.0
        state = int(model.initial)
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
                log_path.append(p)
                log_time.append(t)
                log_state.append(state)
    return ChainPaths(np.full(paths, int(model.initial)), log_path, log_time, log_state)


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


def reference_validate_k_functions(problem, horizon, paths=2000, seed=0, rate_factors=None):
    d = problem.driver
    if rate_factors is None:
        rate_factors = (d.gamma, 1.0, 1.0 / d.gamma)
    out = {"candidates": [], "passed": True}
    for c in rate_factors:
        scaled = MarkovChainModel(
            n_states=problem.model.n_states,
            rate_fn=lambda t, c=c: problem.model.rates(t) * c,
            initial=problem.model.initial,
            rate_bound=problem.model.rate_bound * max(c, 1.0),
        )
        sim = simulate_chain(scaled, horizon, paths, seed)
        g = problem.terminal_fn
        taus, xis = [], []
        for p in sim:
            tgrid = np.concatenate([[0.0], p.jump_times, [horizon]])
            hit_t = None
            for t in tgrid:
                if int(p.state_at(t)) in problem.hitting_set:
                    hit_t = float(t)
                    break
            tau = hit_t if hit_t is not None else horizon
            taus.append(tau)
            xis.append(g(tau, int(p.state_at(tau))))
        taus = np.array(taus)
        xis = np.array(xis)
        e_xi = float(np.mean(np.abs(xis)))
        e_tau = float(np.mean((1.0 + taus) ** (1.0 + d.beta)))
        e_k1 = float(np.mean(np.array([abs(d.k1(t)) for t in taus]) ** (1.0 + d.beta_tilde)))
        rec = {
            "factor": c,
            "E|xi|": e_xi,
            "E(1+tau)^(1+beta)": e_tau,
            "EK1(tau)^(1+beta~)": e_k1,
            "K1(0)": d.k1(0.0),
            "K2(0)": d.k2(0.0),
            "ok": e_xi <= d.k1(0.0) + 1e-9
            and e_tau <= d.k1(0.0) + 1e-9
            and e_k1 <= d.k2(0.0) + 1e-9,
        }
        out["candidates"].append(rec)
        out["passed"] = out["passed"] and rec["ok"]
    return out
