"""Slow references for the solvers in ``wiener``.

``reference_solve_lsmc`` fits ``Y`` and each ``Z`` column with its own
least-squares solve, builds the polynomial features by ``x ** p`` and
averages bins one slice at a time after a stable sort.
``reference_solve_picard_oracle`` builds one ``CubicSpline`` per sweep step
and evaluates it at every quadrature node, reads the fields at the paths with
``np.interp`` node by node (``reference_oracle_read_out``), and applies the
stop rule path by path.  The fast solvers must agree with them to rounding.

``reference_path_values`` builds the Brownian path values with
``np.cumsum`` along the steps after a zero row, laid out node-major; the
running sum of ``wiener._path_nodes`` must give its bytes.

``step_major_solve_lsmc`` is ``solve_lsmc``'s own loop as it stood before
the state went node-major: it builds the active mask on every step, the
stop mask of ``Y`` whatever the stops, and the bins fit by a repeat and a
scatter per column.  ``solve_lsmc`` does the same arithmetic in the same
order, so it must agree with it byte for byte.
"""

import math

import numpy as np
from scipy.interpolate import CubicSpline

from tcbsde import wiener
from tcbsde.errors import PreconditionError, UnsupportedError
from tcbsde.wiener import (
    _N_BINS,
    BrownianEnsemble,
    SolutionEnsemble,
    _contraction_guard,
    _terminal,
    _unpack,
)


def _poly_features(x: np.ndarray, degree: int) -> np.ndarray:
    cols = [np.ones(x.shape[0])]
    for j in range(x.shape[1]):
        for p in range(1, degree + 1):
            cols.append(x[:, j] ** p)
    return np.column_stack(cols)


class _Regressor:
    """Least-squares conditional expectation on a fixed design, reused per step."""

    def __init__(self, x, basis, degree, n_bins):
        self.kind = basis
        self.rank_deficient = False
        if basis == "poly":
            self.A = _poly_features(x, degree)
        elif basis == "bins":
            # Equal-count bins on the first coordinate: local averaging keeps
            # estimates inside the data range, which global polynomials do not.
            order = np.argsort(x[:, 0], kind="stable")
            self.order = order
            edges = np.linspace(0, x.shape[0], n_bins + 1).astype(int)
            self.slices = [
                (edges[i], edges[i + 1]) for i in range(n_bins) if edges[i + 1] > edges[i]
            ]
        else:
            raise PreconditionError(f"unknown basis {basis!r}")

    def fit_predict(self, y: np.ndarray) -> np.ndarray:
        if self.kind == "poly":
            coef, _, rank, _ = np.linalg.lstsq(self.A, y, rcond=None)
            if rank < self.A.shape[1]:
                self.rank_deficient = True
                return np.full(y.shape[0], float(np.mean(y)))
            return self.A @ coef
        out = np.empty(y.shape[0])
        ys = y[self.order]
        for lo, hi in self.slices:
            out[self.order[lo:hi]] = np.mean(ys[lo:hi])
        return out



def reference_solve_lsmc(
    problem_or_transformed,
    ensemble: BrownianEnsemble | None = None,
    *,
    basis: str = "poly",
    degree: int = 3,
    n_bins: int = 50,
) -> SolutionEnsemble:
    """Backward induction with regressed conditional expectations.

    Stopped paths are frozen at their payoff; regression runs on the still
    active subset (the not-yet-stopped indicator interacting with the whole
    basis).  Rank-deficient designs fall back to the ensemble mean and set
    ``metadata["rank_deficient"]``.
    """
    problem, ensemble, state, _ = _unpack(problem_or_transformed, ensemble)
    if problem.k != 1:
        raise UnsupportedError("solvers cover scalar solutions (k = 1)")
    grid = ensemble.grid
    _contraction_guard(problem, grid)
    P, n, d = state.shape
    dt = grid.steps

    stop_idx = problem.terminal.stop_indices(state)
    truncated = float(np.mean(stop_idx == n - 1)) if problem.terminal.kind == "first_exit" else 0.0
    tau = grid.nodes[stop_idx]
    w_tau = state[np.arange(P), stop_idx, :]
    xi = np.asarray(problem.payoff(tau, w_tau), dtype=float)

    # payoff held from the stopped index on
    after_stop = np.arange(n)[None, :] >= stop_idx[:, None]
    Y = np.where(after_stop, xi[:, None], 0.0)
    Z = np.zeros((P, n, d))

    rank_flag = False
    drv_acc = np.zeros(P)  # running sum of driver * dt along each path
    for j in range(n - 2, -1, -1):
        active = stop_idx > j
        y_next = Y[:, j + 1]
        if not np.any(active):
            continue
        if j == 0:
            pred = np.full(int(np.sum(active)), float(np.mean(y_next[active])))
            zj = -np.mean(y_next[active, None] * ensemble.increments[active, 0, :], axis=0) / dt[0]
            zj = np.broadcast_to(zj, (pred.size, d))
        else:
            reg = _Regressor(state[active, j, :], basis, degree, n_bins)
            pred = reg.fit_predict(y_next[active])
            zj = np.empty((pred.size, d))
            for a in range(d):
                zj[:, a] = -reg.fit_predict(
                    y_next[active] * ensemble.increments[active, j, a]
                ) / dt[j]
            rank_flag = rank_flag or reg.rank_deficient
        drv = np.asarray(
            problem.driver(float(grid.nodes[j]), state[active, j, :], pred, zj), dtype=float
        )
        Y[active, j] = pred + drv * dt[j]
        Z[active, j, :] = zj
        drv_acc[active] += drv * dt[j]

    # Regression preserves cross-path means step by step, so Y_0 is the mean
    # of the per-path discounted target; its spread gives the honest SE.
    target = xi + drv_acc
    meta = {
        "rank_deficient": rank_flag,
        "truncated_fraction": truncated,
        "y0_se": float(np.std(target) / math.sqrt(P)),
        "basis": basis,
    }
    return SolutionEnsemble(
        grid=grid, Y=Y, Z=Z, stop_idx=stop_idx, scheme="lsmc", seed=ensemble.seed, metadata=meta
    )


def reference_solve_picard_oracle(
    problem_or_transformed,
    ensemble: BrownianEnsemble | None = None,
    iterations: int = 8,
    *,
    n_space: int = 201,
    n_quad: int = 21,
    span_sigmas: float = 6.0,
) -> SolutionEnsemble:
    """Fixed-point oracle: iterate the frozen-driver equation on a state grid.

    Starting from ``(Y, Z) = (0, 0)``, each sweep solves the discrete backward
    equation with the driver evaluated at the previous iterate, using
    Gauss-Hermite quadrature for the one-step conditional expectations --
    deliberately independent of the regression machinery it is used to check.
    Scalar problems with one noise only; small instances intended.
    """
    problem, ensemble, state, state_var = _unpack(problem_or_transformed, ensemble)
    if problem.k != 1 or problem.d != 1:
        raise UnsupportedError("the fixed-point oracle covers k = d = 1 problems")
    grid = ensemble.grid
    _contraction_guard(problem, grid)
    P, n, _ = state.shape
    dt = grid.steps

    total_sd = math.sqrt(float(np.sum(state_var)))
    span = span_sigmas * max(total_sd, 1e-8)
    xs = np.linspace(-span, span, n_space)
    gh_x, gh_w = np.polynomial.hermite_e.hermegauss(n_quad)
    gh_w = gh_w / math.sqrt(2.0 * math.pi)

    rule = problem.terminal
    if rule.kind == "first_exit" and rule.coord != 0:
        raise UnsupportedError("oracle exit rule must watch the single coordinate")

    def absorbed(x):
        if rule.kind == "fixed":
            return np.zeros(x.shape, dtype=bool)
        return (x <= rule.lower) | (x >= rule.upper)

    def payoff_on(tnode, x):
        return np.asarray(problem.payoff(np.full(x.shape, tnode), x[:, None]), dtype=float)

    y_field = np.zeros((n, n_space))
    z_field = np.zeros((n, n_space))
    distances = []
    diverging = 0

    for _ in range(max(1, iterations)):
        y_new = np.zeros_like(y_field)
        z_new = np.zeros_like(z_field)
        y_new[n - 1] = payoff_on(grid.nodes[-1], xs)
        for j in range(n - 2, -1, -1):
            sd = math.sqrt(state_var[j])
            shift = xs[:, None] + sd * gh_x[None, :]
            np.clip(shift, xs[0], xs[-1], out=shift)
            # cubic evaluation: linear interpolation systematically inflates
            # convex fields and the bias accumulates linearly in the step count
            nxt = CubicSpline(xs, y_new[j + 1])(shift)
            cond = nxt @ gh_w
            # E[y(x + dX) dX] = var * d/dx E[y(x + dX)] (Gaussian integration
            # by parts); the convolved field is smooth, so its grid gradient
            # is far more accurate than the raw odd quadrature moment.
            z_new[j] = -np.gradient(cond, xs) * math.sqrt(state_var[j] / dt[j])
            drv = np.asarray(
                problem.driver(float(grid.nodes[j]), xs[:, None], y_field[j], z_field[j][:, None]),
                dtype=float,
            )
            y_new[j] = cond + drv * dt[j]
            mask = absorbed(xs)
            if np.any(mask):
                y_new[j][mask] = payoff_on(grid.nodes[j], xs[mask])
                z_new[j][mask] = 0.0
        dist = float(np.max(np.abs(y_new - y_field)) + np.max(np.abs(z_new - z_field)))
        if distances and dist > distances[-1]:
            diverging += 1
        else:
            diverging = 0
        distances.append(dist)
        y_field, z_field = y_new, z_new

    Y, Z = reference_oracle_read_out(state, xs, y_field, z_field)
    stop_idx = rule.stop_indices(state)
    tau = grid.nodes[stop_idx]
    w_tau = state[np.arange(P), stop_idx, :]
    xi = np.asarray(problem.payoff(tau, w_tau), dtype=float)
    for p in range(P):
        Y[p, stop_idx[p] :] = xi[p]
        Z[p, stop_idx[p] :, :] = 0.0

    meta = {
        "iterate_distances": distances,
        "diverging": diverging >= 2,
        "state_values": (xs, y_field),
    }
    return SolutionEnsemble(
        grid=grid, Y=Y, Z=Z, stop_idx=stop_idx, scheme="picard", seed=ensemble.seed, metadata=meta
    )


def reference_path_values(increments: np.ndarray) -> np.ndarray:
    """The path values at every node, ``(P, n_steps + 1, d)``: a zero row, then ``np.cumsum``.

    The buffer is node-major, ``(n_steps + 1, P, d)`` in memory, and the
    result is its transposed view.
    """
    P, m, d = increments.shape
    out = np.zeros((m + 1, P, d)).transpose(1, 0, 2)
    np.cumsum(increments, axis=1, out=out[:, 1:, :])
    return out


def reference_oracle_read_out(state, xs, y_field, z_field):
    """The oracle's fields read at each path's state: two ``np.interp`` calls per node."""
    P, n, _ = state.shape
    Y = np.empty((P, n))
    Z = np.empty((P, n, 1))
    for j in range(n):
        Y[:, j] = np.interp(state[:, j, 0], xs, y_field[j])
        Z[:, j, 0] = np.interp(state[:, j, 0], xs, z_field[j])
    return Y, Z


def _step_major_regress(x: np.ndarray, B: np.ndarray, basis: str):
    if basis == "poly":
        A = wiener._poly_features(x)
        coef, _, rank, _ = np.linalg.lstsq(A, B, rcond=None)
        if rank < A.shape[1]:
            return np.full(B.shape, np.mean(B, axis=0)), True
        return A @ coef, False
    if basis != "bins":
        raise PreconditionError(f"unknown basis {basis!r}")
    m = x.shape[0]
    order = np.argsort(x[:, 0])
    edges = np.unique(np.linspace(0, m, _N_BINS + 1).astype(int))
    counts = np.diff(edges)
    out = np.empty_like(B)
    # one contiguous column of the F-order block at a time: gathering,
    # summing and scattering whole rows of it costs about twice as much
    for col, fit in zip(B.T, out.T):
        means = np.add.reduceat(col[order], edges[:-1]) / counts
        fit[order] = np.repeat(means, counts)
    return out, False


def step_major_solve_lsmc(
    problem_or_transformed,
    ensemble: BrownianEnsemble | None = None,
    *,
    basis: str = "poly",
) -> SolutionEnsemble:
    problem, ensemble, state, _ = _unpack(problem_or_transformed, ensemble)
    if problem.k != 1:
        raise UnsupportedError("solvers cover scalar solutions (k = 1)")
    grid = ensemble.grid
    _contraction_guard(problem, grid)
    P, n, d = state.shape
    dt = grid.steps

    stop_idx, xi = _terminal(problem, grid, state)
    truncated = float(np.mean(stop_idx == n - 1)) if problem.terminal.kind == "first_exit" else 0.0

    # payoff held from the stopped index on
    after_stop = np.arange(n)[:, None] >= stop_idx[None, :]
    Y = np.where(after_stop, xi[None, :], 0.0)
    Z = np.zeros((n, P, d))

    rank_flag = False
    drv_acc = np.zeros(P)  # running sum of driver * dt along each path
    for j in range(n - 2, -1, -1):
        active = stop_idx > j
        if not np.any(active):
            continue
        # a boolean selection copies; with every path live a slice does not
        live = slice(None) if active.all() else active
        y_act = Y[j + 1, live]
        x = state[live, j, :]
        dw = ensemble.increments[live, j, :]
        if j == 0:
            pred = np.full(y_act.size, float(np.mean(y_act)))
            zj = -np.mean(y_act[:, None] * dw, axis=0) / dt[0]
            zj = np.broadcast_to(zj, (pred.size, d))
        else:
            # column-major: a rank-deficient fallback then sums each column
            # in the same order as the mean of a 1-d array
            rhs = np.empty((y_act.size, 1 + d), order="F")
            rhs[:, 0] = y_act
            np.multiply(y_act[:, None], dw, out=rhs[:, 1:])
            fit, deficient = _step_major_regress(x, rhs, basis)
            pred = fit[:, 0]
            zj = -fit[:, 1:] / dt[j]
            rank_flag = rank_flag or deficient
        drv = np.asarray(problem.driver(float(grid.nodes[j]), x, pred, zj), dtype=float)
        Y[j, live] = pred + drv * dt[j]
        Z[j, live, :] = zj
        drv_acc[live] += drv * dt[j]

    # Regression preserves cross-path means step by step, so Y_0 is the mean
    # of the per-path discounted target; its spread gives the honest SE.
    target = xi + drv_acc
    meta = {
        "rank_deficient": rank_flag,
        "truncated_fraction": truncated,
        "y0_se": float(np.std(target) / math.sqrt(P)),
        "basis": basis,
    }
    return SolutionEnsemble(
        grid=grid, Y=Y.T, Z=Z.transpose(1, 0, 2), stop_idx=stop_idx, scheme="lsmc",
        seed=ensemble.seed, metadata=meta,
    )
