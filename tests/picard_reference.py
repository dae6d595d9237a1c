"""Path-major reference for the chain Picard solver in ``chain``.

``reference_picard_solve`` is the solver as it stood before the backward
pass went step-major: it reads the state grid column by column from a
``(paths, times)`` array, selects each state with a boolean mask, runs the
inner loop over every state (hitting states included, whose selection is
always empty) and finds the stop indices with ``np.isin``.  The grid states
come from ``reference_states_at``, the path-major cumulative sum the batch
used before.  The solver must agree with it bit for bit.
"""

import numpy as np

from tcbsde.chain import (
    _FIXED_POINT_MAX_ITERATIONS,
    _FIXED_POINT_MIN_ITERATIONS,
    ChainSolution,
    _fixed_point_cap,
    _thin,
)
from tcbsde.errors import SchemeError


def reference_states_at(log, times):
    """State of every path at each time, shape ``(paths, len(times))``, summed along the times."""
    times = np.asarray(times, dtype=float)
    out = np.zeros((len(log), times.size), dtype=int)
    out[:, :1] = log.initial[:, None]
    col = np.searchsorted(times, log.time, side="left")
    seen = col < times.size
    np.add.at(out, (log.path[seen], col[seen]), (log.state - log._state_before())[seen])
    np.cumsum(out, axis=1, out=out)
    return out


def reference_stop_indices(path_states, hitting_set, grid):
    n = grid.n_nodes
    inset = np.isin(path_states, sorted(hitting_set))
    idx = np.argmax(inset, axis=1)
    idx[~inset.any(axis=1)] = n - 1
    return idx


def reference_picard_solve(problem, grid, paths, seed, fp_tol=1e-12):
    model = problem.model
    N = model.n_states
    n = grid.n_nodes
    dt = grid.steps
    c_max = float(np.max(problem.driver.c_path.values))
    if np.any(dt * max(c_max, 1e-12) >= 1.0):
        raise SchemeError("per-step contraction fails: dt * Lipschitz >= 1")
    log, _, _ = _thin(model, grid.t_end, paths, seed)
    S = reference_states_at(log, grid.nodes)
    stop = reference_stop_indices(S, problem.hitting_set, grid)
    truncated = float(np.mean(stop == n - 1))
    g = problem.terminal_fn
    xi = np.array([g(float(grid.nodes[stop[p]]), int(S[p, stop[p]])) for p in range(paths)])

    eye = np.eye(N)
    Y = np.where(np.arange(n)[None, :] >= stop[:, None], xi[:, None], 0.0)
    values = np.zeros((n, N))
    values[n - 1] = [g(grid.t_end, i) for i in range(N)]

    f = problem.driver.f
    for j in range(n - 2, -1, -1):
        t = float(grid.nodes[j])
        A = model.rates(t)
        active = stop > j
        y_next = Y[:, j + 1]
        for i in range(N):
            sel = active & (S[:, j] == i)
            if not np.any(sel):
                values[j, i] = values[j + 1, i]
                continue
            cond = float(np.mean(y_next[sel]))
            # Z from regressing Y-jumps on M-jumps; bracket-null directions
            # remain free, reporting uses the semi-norm
            dX = eye[S[sel, j + 1]] - eye[i][None, :]
            dM = dX - (A[:, i] * dt[j])[None, :]
            dY = y_next[sel] - cond
            z, *_ = np.linalg.lstsq(dM, dY, rcond=None)
            y, cap = cond, _FIXED_POINT_MIN_ITERATIONS
            for k in range(1, _FIXED_POINT_MAX_ITERATIONS + 1):
                y_new = cond + f(t, i, y, z) * dt[j]
                residual = abs(y_new - y)
                y = y_new
                if residual <= fp_tol:
                    break
                if k == 1:
                    cap = _fixed_point_cap(dt[j] * c_max, residual, fp_tol)
                if k >= _FIXED_POINT_MIN_ITERATIONS:
                    # past |y| = 2**13 one rounding step exceeds the default
                    # absolute tolerance, so from here on judge the residual
                    # relative to |y|; a NaN residual fails the comparison
                    if residual <= fp_tol * max(1.0, abs(y)):
                        break
                    if k >= cap:
                        raise SchemeError(
                            f"fixed point at step {j} (t={t}), state {i} did not converge "
                            f"in {k} iterations: last residual {residual:.3g} at y={y:.6g}"
                        )
            values[j, i] = y
        for i in sorted(problem.hitting_set):
            values[j, i] = g(t, i)
        Y[:, j] = np.where(active, values[j, S[:, j]], xi)

    return ChainSolution(
        grid=grid,
        state_values=values,
        scheme="picard",
        metadata={"truncated_fraction": truncated},
        path_states=S,
        path_Y=Y,
        stop_idx=stop,
    )
