"""Brownian-driven backward SDEs and their time-change transforms.

The equation solved throughout is, in its sign convention,

    Y_t = xi + int_t^tau f(s, Y_s, Z_s) ds + int_t^tau Z_s dW_s,

with the martingale integral *added* after the driver term.  The discrete
consequences, validated against the fixed-point oracle before any closed form
is trusted:

    Y_j = E[Y_{j+1} | F_j] + f(t_j, Y_j, Z_j) dt_j
    Z_j = - E[Y_{j+1} dW_j | F_j] / dt_j

and the linear driver ``f = r y + u z`` prices as
``Y_0 = exp(int r) E[xi(G)]`` with ``G ~ N(-int u, T)``.

A driver with time-varying Lipschitz coefficients ``r_t`` (in y) and ``u_t``
(in z) is tamed by the clock with density ``alpha^2 = max(r, u^2)``: under the
time change the driver

    f~(s, y, z) = f(inv(s), y, z * alpha(inv(s))) / alpha^2(inv(s))

has uniform Lipschitz constant 1, the rescaled noise is again Brownian, and
solutions map back via ``Y_t = y(phi(t))``, ``Z_t = z(phi(t)) sqrt(phi'(t))``.

Schemes: explicit backward Euler with least-squares regression for
conditional expectations (global polynomial basis, or bound-preserving
equal-count bins), plus an independent fixed-point oracle that iterates the
frozen-driver equation on a state grid with Gauss-Hermite quadrature.
Everything is deterministic given the seed; regressions reduce over paths in
a fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.interpolate import CubicSpline
from scipy.sparse import csr_array

from .errors import (
    InvariantError,
    PreconditionError,
    SchemeError,
    StructuralError,
    UnsupportedError,
    check_count,
)
from .timechange import (
    LINEAR,
    CoefficientProcesses,
    IncreasingProcess,
    SampledPath,
    TimeChangeMap,
    TimeGrid,
    build_clock_from_density,
    build_phi,
    interp_columns,
)

Driver = Callable[..., np.ndarray]  # f(t, w, y, z) -> per-path values
Payoff = Callable[[np.ndarray, np.ndarray], np.ndarray]  # xi(tau, w_tau) -> per-path


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class BrownianEnsemble:
    """P paths of d-dimensional Brownian increments on a shared grid."""

    grid: TimeGrid
    increments: np.ndarray  # (P, n_steps, d)
    seed: int
    # _path_nodes' last read: (node indices, read-only values at them)
    _node_read: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.increments.ndim != 3:
            raise InvariantError("increments must be (paths, steps, dim)")
        if self.increments.shape[1] != self.grid.n_nodes - 1:
            raise InvariantError("one increment per grid step required")

    @property
    def paths(self) -> int:
        return self.increments.shape[0]

    @property
    def dim(self) -> int:
        return self.increments.shape[2]

    @cached_property
    def values(self) -> np.ndarray:
        """Path values W on the grid nodes, (P, n_nodes, d), starting at 0.

        :func:`_path_nodes`' read at every node, built on first access and
        kept on the ensemble, read-only and as large as the increments.  The
        solvers read it on the ensemble they solve on.
        :func:`restrict_brownian`, :func:`transform_brownian` and
        :func:`transform_driver` read only the nodes they need, and never
        build it.  Its buffer is node-major, ``(n_nodes, P, d)`` in memory:
        the solvers step through the nodes, and each node's
        ``values[:, j, :]`` is then one contiguous block, as in a
        transformed state.
        """
        return _path_nodes(self, np.arange(self.grid.n_nodes))


def _path_nodes(W: BrownianEnsemble, idx: np.ndarray) -> np.ndarray:
    """The path values at non-decreasing nodes ``idx``, ``(P, idx.size, d)``.

    The one running sum of the increments, in the output: each wanted
    node's ``(P, d)`` block is the previous one's plus the steps between
    them, each step added to every path at once, up to the highest wanted
    node.  The values are those of ``np.cumsum`` along the steps
    after a zero: each path's steps are added in order, and the first step
    is copied, not added to 0.0 (which would turn -0.0 into 0.0).  The
    result is read-only and node-major in memory, so each node's block is
    contiguous and a reduction over it sums in one order.

    The ensemble keeps the last read, one entry keyed by ``idx``, and hands
    the same array to the next caller asking for the same nodes:
    restricting a fine ensemble to a grid and then transforming it through
    a clock whose inverse falls on that grid's nodes sums the fine
    increments once.  The entry lives as long as the ensemble, and a read at
    other nodes replaces it.  Like ``values``, it assumes that the
    increments are not written after the ensemble is built.
    """
    if W._node_read is not None and np.array_equal(W._node_read[0], idx):
        return W._node_read[1]
    inc = W.increments
    out = np.empty((idx.size,) + inc.shape[::2])
    prev, node = np.zeros(inc.shape[::2]), 0  # prev: the paths at node `node`
    for pos, want in enumerate(idx.tolist()):
        row = out[pos]
        if want == node:
            row[...] = prev
        for j in range(node, want):
            if j == 0:
                np.copyto(row, inc[:, 0])
            else:
                np.add(row if j > node else prev, inc[:, j], out=row)
        node, prev = want, row
    out = out.transpose(1, 0, 2)
    out.setflags(write=False)
    W._node_read = (np.array(idx), out)
    return out


def simulate_brownian(grid: TimeGrid, paths: int, dim: int, seed: int) -> BrownianEnsemble:
    """Gaussian increments of the step's variance, deterministic per seed.

    ``paths`` and ``dim`` are counts, and ``seed`` an integer >= 0.
    """
    check_count("path count", paths)
    check_count("dimension", dim)
    rng = np.random.default_rng(check_count("seed", seed, least=0))
    z = rng.standard_normal((paths, grid.n_nodes - 1, dim))
    z *= np.sqrt(grid.steps)[None, :, None]
    return BrownianEnsemble(grid=grid, increments=z, seed=seed)


# how far a restricted grid's node may sit from the simulated node it reads
_NESTING_SLACK = 1e-9


def restrict_brownian(W: BrownianEnsemble, grid: TimeGrid) -> BrownianEnsemble:
    """The same Brownian paths read on a coarser grid (increments aggregated).

    Used to couple a direct solve on the original grid with a transformed
    solve fed from the same fine simulation.  The grids must be nested: every
    node of ``grid`` is a node of the simulated grid up to ``1e-9``, so its
    end does not pass the simulated end.  The increments are not rescaled,
    so a coarse node read from a fine node elsewhere would give steps of the
    wrong variance; such a grid raises :class:`StructuralError`.  The paths
    are read at those nodes only, and ``W.values`` is not built.
    """
    if grid.t_end > W.grid.t_end + _NESTING_SLACK:
        raise StructuralError("target grid runs past the simulated one")
    idx = _snap_to_grid(W.grid.nodes, grid.nodes)
    idx[0] = 0
    if np.any(np.diff(idx) < 1):
        raise StructuralError("target grid is finer than the simulated one")
    if np.max(np.abs(W.grid.nodes[idx] - grid.nodes)) > _NESTING_SLACK:
        raise StructuralError("target grid is not nested in the simulated one")
    vals = _path_nodes(W, idx)
    return BrownianEnsemble(grid=grid, increments=np.diff(vals, axis=1), seed=W.seed)


# ---------------------------------------------------------------------------
# problems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TerminalRule:
    """Deterministic horizon (the grid end) or first exit of one noise coordinate.

    Exits are detected at grid nodes, i.e. the stopping time is snapped to the
    next node; paths that never exit are truncated at the grid end and counted
    in the solver metadata.  A path exits where its coordinate is at or below
    ``lower`` or at or above ``upper``; an infinite bound is never reached.
    A ``fixed`` rule watches nothing and keeps the default coordinate and
    bounds; a ``first_exit`` rule needs ``lower < upper``, neither NaN.  A
    rule that breaks this raises :class:`InvariantError` when built, and a
    coordinate past the noise's raises :class:`StructuralError` when a solve
    reads the stops.
    """

    kind: str = "fixed"  # "fixed" | "first_exit"
    coord: int = 0
    lower: float = -math.inf
    upper: float = math.inf

    def __post_init__(self):
        if self.kind == "fixed":
            if (self.coord, self.lower, self.upper) != (0, -math.inf, math.inf):
                raise InvariantError("a fixed terminal rule takes no coordinate or bounds")
        elif self.kind != "first_exit":
            raise InvariantError(f"unknown terminal rule {self.kind!r}")
        check_count("coordinate", self.coord, least=0, error=InvariantError)
        if not self.lower < self.upper:  # False for NaN
            raise InvariantError(f"exit bounds need lower < upper, got {self.lower} and {self.upper}")

    def outside(self, x: np.ndarray) -> np.ndarray:
        """Where values ``x`` of the watched coordinate have left the interval; never for ``fixed``."""
        if self.kind == "fixed":
            return np.zeros(np.shape(x), dtype=bool)
        return (x <= self.lower) | (x >= self.upper)

    def stop_indices(self, state: np.ndarray) -> np.ndarray:
        """First node of each path's state ``(P, n, d)`` outside the interval, else ``n - 1``."""
        n = state.shape[1]
        if self.kind == "fixed":
            return np.full(state.shape[0], n - 1, dtype=int)
        if self.coord >= state.shape[2]:
            raise StructuralError(f"terminal rule watches coordinate {self.coord} of {state.shape[2]}")
        out = self.outside(state[:, :, self.coord])
        hit = np.argmax(out, axis=1)
        hit[~out.any(axis=1)] = n - 1
        return hit


@dataclass(frozen=True)
class WienerBSDEProblem:
    """Driver, coefficient processes, terminal rule and payoff for one equation.

    ``driver(t, w, y, z)`` is vectorized over paths: ``w`` is ``(m, d)``,
    ``y`` is ``(m,)`` and ``z`` is ``(m, d)``.  ``payoff(tau, w_tau)`` maps the
    stopped time/state arrays to terminal values.
    """

    k: int
    d: int
    driver: Driver
    coeffs: CoefficientProcesses
    terminal: TerminalRule
    payoff: Payoff


@dataclass(eq=False)
class SolutionEnsemble:
    grid: TimeGrid
    Y: np.ndarray  # (P, n_nodes)
    Z: np.ndarray  # (P, n_nodes, d)
    stop_idx: np.ndarray  # (P,)
    scheme: str
    seed: int
    metadata: dict = field(default_factory=dict)

    @property
    def paths(self) -> int:
        return self.Y.shape[0]

    def y0(self) -> float:
        return float(self.Y[0, 0])

    def y0_se(self) -> float:
        # Y_0 is the F_0 expectation; its error is driven by the terminal-layer
        # Monte Carlo average, reported via the metadata when available.
        return float(self.metadata.get("y0_se", np.nan))


@dataclass(eq=False)
class TransformedProblem:
    """A problem rewritten on the clock's time scale, plus matching ensembles.

    ``problem`` is a genuine :class:`WienerBSDEProblem` with the transformed
    driver (uniform Lipschitz constant at most 1) on the target grid.
    ``noise`` carries the rescaled Brownian increments and ``state`` the
    time-changed original Brownian path, which is the Markov state of the
    transformed equation; ``state_var`` holds its per-step transition
    variances.  The solvers solve it on this noise and take no other
    ensemble with it.
    """

    base: WienerBSDEProblem
    clock: TimeChangeMap
    problem: WienerBSDEProblem
    noise: BrownianEnsemble | None = None
    state: np.ndarray | None = None
    state_var: np.ndarray | None = None

    @property
    def grid(self) -> TimeGrid:
        return self.clock.target_grid


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def _snap_to_grid(nodes: np.ndarray, times: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(nodes, times)
    idx = np.clip(idx, 1, nodes.size - 1)
    left_closer = (times - nodes[idx - 1]) < (nodes[idx] - times)
    idx = np.where(left_closer, idx - 1, idx)
    return idx


def _snapped_inverse_indices(W: BrownianEnsemble, clock: TimeChangeMap) -> np.ndarray:
    """The noise grid's nodes nearest the clock's inverse, which ``clock.crossing`` checks."""
    inv, _ = clock.crossing("inverse", W.grid)
    idx = _snap_to_grid(W.grid.nodes, inv)
    idx[0] = 0
    if np.any(np.diff(idx) < 1):
        raise StructuralError(
            "noise grid does not refine the clock image; use a finer simulation grid"
        )
    return idx


def _time_changed(W: BrownianEnsemble, clock: TimeChangeMap):
    """``(noise, state, gaps)``: :func:`transform_brownian`'s ensemble, the
    path at the snapped inverse nodes, ``(P, n, d)``, and their time gaps."""
    idx = _snapped_inverse_indices(W, clock)
    gaps = np.diff(W.grid.nodes[idx])
    vals = _path_nodes(W, idx)
    inc = np.diff(vals, axis=1) * np.sqrt(clock.target_grid.steps / gaps)[None, :, None]
    return BrownianEnsemble(grid=clock.target_grid, increments=inc, seed=W.seed), vals, gaps


def transform_brownian(W: BrownianEnsemble, clock: TimeChangeMap) -> BrownianEnsemble:
    """Rescaled increments of the time-changed Brownian path.

    Over target step j the increment is
    ``(W(inv(t_{j+1})) - W(inv(t_j))) / sqrt(d inv_j / dt_j)``; the inverse
    times are snapped to the simulation grid and the realized gaps are used as
    the derivative sample, so every increment has variance exactly ``dt_j``.
    The path is read at the snapped nodes only, and ``W.values`` is not built.
    """
    return _time_changed(W, clock)[0]


def transform_driver(
    problem: WienerBSDEProblem,
    clock: TimeChangeMap,
    W: BrownianEnsemble | None = None,
) -> TransformedProblem:
    """Rewrite the problem on the clock's scale; attach ensembles when noise is given.

    The new driver is
    ``f~(s, y, z) = f(inv(s), y, z / sqrt(inv'(s))) * inv'(s)`` with
    ``inv'(s) = 1 / alpha^2(inv(s))`` composed exactly through the clock's
    density, which is what keeps the probed Lipschitz ratio at or below 1 to
    rounding rather than to grid tolerance.  The new problem is an ordinary
    :class:`WienerBSDEProblem`: its coefficients are all ones (Lipschitz
    constant 1), and it keeps the original terminal rule, since an exit
    interval applies to the same state.

    With ``W``, the clock's inverse is snapped to the noise grid once and the
    path is read once at those nodes, for both the noise and the state;
    ``W.values`` is not built.
    """
    if not clock.source_grid.same_as(problem.coeffs.grid):
        raise StructuralError("clock and problem coefficients live on different grids")

    base_driver = problem.driver
    read = clock.inverse_density_at

    def tilde_driver(s, w, y, z):
        t, a2 = read(s)
        return base_driver(t, w, y, z * math.sqrt(a2)) / a2

    base_payoff = problem.payoff

    def tilde_payoff(tau, w_tau):
        return base_payoff(np.asarray(clock.inverse_at(tau)), w_tau)

    tgt = clock.target_grid
    ones = np.ones(tgt.n_nodes)
    tilde_coeffs = CoefficientProcesses(
        r=SampledPath(tgt, ones, LINEAR),
        u=SampledPath(tgt, ones, LINEAR),
        alpha_sq=SampledPath(tgt, ones, LINEAR),
        eps=1.0,
        mode=problem.coeffs.mode,
        l=SampledPath(tgt, ones, LINEAR) if problem.coeffs.mode == "monotone" else None,
    )

    tilde_problem = WienerBSDEProblem(
        k=problem.k,
        d=problem.d,
        driver=tilde_driver,
        coeffs=tilde_coeffs,
        terminal=problem.terminal,
        payoff=tilde_payoff,
    )
    out = TransformedProblem(base=problem, clock=clock, problem=tilde_problem)
    if W is not None:
        out.noise, out.state, out.state_var = _time_changed(W, clock)
    return out


# probes come in this many batches, each at one sampled time: drivers are
# vectorized per time
_PROBE_TIME_BATCHES = 50
# half-width of the probe box of the comparison and boundedness checks, and
# of the Lipschitz ratio's
_PROBE_BOX = 2.0
_LIPSCHITZ_PROBE_BOX = 3.0
_COMPARISON_PROBES = 200
_BOUNDEDNESS_PROBES = 100


def _probe_batches(n_probes: int, box: float, dim: int, t_range: tuple[float, float], seed: int):
    """Random probe points, one batch per sampled time: ``(t, w, y, y', z, z')``.

    ``max(1, n_probes // _PROBE_TIME_BATCHES)`` points per batch, every
    coordinate uniform on ``[-box, box]``; ``seed`` is an integer >= 0.  The
    draw order is part of the output: ``transformed-driver-lipschitz`` reads it.
    """
    rng = np.random.default_rng(check_count("seed", seed, least=0))
    m = max(1, n_probes // _PROBE_TIME_BATCHES)
    for _ in range(_PROBE_TIME_BATCHES):
        t = float(rng.uniform(*t_range))
        w = rng.uniform(-box, box, size=(m, dim))
        y = rng.uniform(-box, box, size=m)
        yp = rng.uniform(-box, box, size=m)
        z = rng.uniform(-box, box, size=(m, dim))
        zp = rng.uniform(-box, box, size=(m, dim))
        yield t, w, y, yp, z, zp


def check_uniform_lipschitz(
    driver: Driver,
    n_probes: int,
    *,
    t_range: tuple[float, float] = (0.0, 1.0),
    seed: int = 0,
) -> float:
    """Max probed ratio ``|f(t,y,z) - f(t,y',z')| / (|y-y'| + |z-z'|)`` of a one-noise driver.

    Probes are grouped by sampled time (drivers are vectorized per time) and
    split into y-only, z-only and joint perturbations so linear drivers attain
    their constant exactly; every coordinate is drawn on ``[-3, 3]``.
    Zero-denominator probes are skipped.
    """
    check_count("probe count", n_probes)
    worst = 0.0
    for t, w, y, yp, z, zp in _probe_batches(n_probes, _LIPSCHITZ_PROBE_BOX, 1, t_range, seed):
        third = y.size // 3
        zp[:third] = z[:third]  # y-only
        yp[third : 2 * third] = y[third : 2 * third]  # z-only
        num = np.abs(driver(t, w, y, z) - driver(t, w, yp, zp))
        den = np.abs(y - yp) + np.linalg.norm(z - zp, axis=-1)
        ok = den > 0
        if np.any(ok):
            worst = max(worst, float(np.max(num[ok] / den[ok])))
    return worst


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def _unpack(problem_or_transformed, ensemble):
    """Problem, noise, Markov state and its step variances.

    A transformed problem brings all three from the noise it was transformed
    with, and takes no ensemble: its state and increments must be one noise.
    A plain problem's state is the ensemble, with the grid steps as variances.
    """
    tp = problem_or_transformed
    if isinstance(tp, TransformedProblem):
        if ensemble is not None:
            raise StructuralError(
                "a transformed problem is solved on the noise it carries; pass no ensemble"
            )
        if tp.noise is None:
            raise StructuralError("the transformed problem carries no noise; transform it with W")
        return tp.problem, tp.noise, tp.state, tp.state_var
    if ensemble is None:
        raise StructuralError("no noise ensemble given")
    return tp, ensemble, ensemble.values, ensemble.grid.steps


def _contraction_guard(problem: WienerBSDEProblem, grid: TimeGrid):
    # A transformed problem's alpha_sq is all ones: its Lipschitz constant is 1.
    lip = float(np.max(problem.coeffs.alpha_sq.values))
    bad = grid.steps * lip >= 1.0
    if np.any(bad):
        j = int(np.argmax(bad))
        raise SchemeError(
            f"per-step contraction fails at step {j}: dt * max Lipschitz = "
            f"{grid.steps[j] * lip:.3g} >= 1"
        )


def _terminal(problem: WienerBSDEProblem, grid: TimeGrid, state: np.ndarray):
    """``(stop_idx, xi)``: each path's stop node under the terminal rule and its payoff there."""
    stop_idx = problem.terminal.stop_indices(state)
    w_tau = state[np.arange(state.shape[0]), stop_idx, :]
    return stop_idx, np.asarray(problem.payoff(grid.nodes[stop_idx], w_tau), dtype=float)


# LSMC regression: polynomial degree of each coordinate, and the bin count
_POLY_DEGREE = 3
_N_BINS = 50


def _poly_features(x: np.ndarray) -> np.ndarray:
    """Columns ``1, x_1, ..., x_1^3, x_2, ...``, powers by running products."""
    m, d = x.shape
    degree = _POLY_DEGREE
    A = np.empty((m, 1 + d * degree))
    A[:, 0] = 1.0
    for j in range(d):
        col = 1 + j * degree
        A[:, col] = x[:, j]
        for p in range(1, degree):
            np.multiply(A[:, col + p - 1], x[:, j], out=A[:, col + p])
    return A


def _regress(x: np.ndarray, B: np.ndarray, basis: str):
    """Least-squares fits of every column of ``B`` on one design built from ``x``.

    Returns the fitted block and whether the design was rank deficient, in
    which case every column is replaced by its own mean.  The ``poly`` basis
    is cubic in each coordinate.  The ``bins`` basis averages over
    ``_N_BINS`` equal-count bins of the first coordinate: local averaging
    keeps estimates inside the data range, which global polynomials do not.
    Values tied across a bin edge may fall in either bin.  Each sample's bin
    is found once per call, and each column's fit takes its bin means at
    those bins.  ``basis`` is one of the two; :func:`solve_lsmc` checks it.
    """
    if basis == "poly":
        A = _poly_features(x)
        coef, _, rank, _ = np.linalg.lstsq(A, B, rcond=None)
        if rank < A.shape[1]:
            return np.full(B.shape, np.mean(B, axis=0)), True
        return A @ coef, False
    m = x.shape[0]
    order = np.argsort(x[:, 0])
    edges = np.unique(np.linspace(0, m, _N_BINS + 1).astype(int))
    counts = np.diff(edges)
    which = np.empty(m, dtype=np.intp)
    which[order] = np.repeat(np.arange(counts.size), counts)
    out = np.empty_like(B)
    # one contiguous column of the F-order block at a time: gathering and
    # summing whole rows of it costs about twice as much.  Every bin index
    # is in range, and a take that clips writes into out without a buffer.
    for col, fit in zip(B.T, out.T):
        means = np.add.reduceat(col[order], edges[:-1]) / counts
        np.take(means, which, out=fit, mode="clip")
    return out, False


def solve_lsmc(
    problem_or_transformed,
    ensemble: BrownianEnsemble | None = None,
    *,
    basis: str = "poly",
) -> SolutionEnsemble:
    """Backward induction with regressed conditional expectations.

    Takes a plain problem with its ``ensemble``, or a
    :class:`TransformedProblem` alone, solved on the noise it carries.
    ``basis`` is ``"poly"`` (cubic in each noise coordinate) or ``"bins"``
    (means over 50 equal-count bins of the first coordinate).

    Stopped paths are frozen at their payoff; regression runs on the still
    active subset (the not-yet-stopped indicator interacting with the whole
    basis).  Each step fits ``Y_{j+1}`` and the ``d`` products
    ``Y_{j+1} dW_j`` as one block of right-hand sides on one design.
    Rank-deficient designs fall back to the ensemble mean and set
    ``metadata["rank_deficient"]``.  An unknown ``basis`` raises
    :class:`PreconditionError` on entry, whether or not a step regresses.

    The solver works step-major: ``Y`` is held as ``(n, P)`` and ``Z`` as
    ``(n, P, d)``, so each step reads and writes contiguous rows, and so
    does its read of the node-major state.  The returned ``Y`` and ``Z``
    are transposed views of these, ``(P, n)`` and ``(P, n, d)`` as usual,
    and no second copy is made.  Every path is live on the steps before the
    first stop, which then build no mask, and each step multiplies the
    driver by its step size once.
    """
    problem, ensemble, state, _ = _unpack(problem_or_transformed, ensemble)
    if problem.k != 1:
        raise UnsupportedError("solvers cover scalar solutions (k = 1)")
    if basis not in ("poly", "bins"):
        raise PreconditionError(f"unknown basis {basis!r}")
    grid = ensemble.grid
    _contraction_guard(problem, grid)
    P, n, d = state.shape
    dt = grid.steps

    stop_idx, xi = _terminal(problem, grid, state)
    truncated = float(np.mean(stop_idx == n - 1)) if problem.terminal.kind == "first_exit" else 0.0
    first_stop = int(np.min(stop_idx))

    # payoff held from the stopped index on
    if first_stop == n - 1:
        Y = np.zeros((n, P))
        Y[n - 1] = xi
    else:
        Y = np.where(np.arange(n)[:, None] >= stop_idx[None, :], xi[None, :], 0.0)
    Z = np.zeros((n, P, d))

    rank_flag = False
    drv_acc = np.zeros(P)  # running sum of driver * dt along each path
    for j in range(n - 2, -1, -1):
        # a boolean selection copies; with every path live a slice does not
        if j < first_stop:
            live = slice(None)
        else:
            live = stop_idx > j
            if not live.any():
                continue
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
            fit, deficient = _regress(x, rhs, basis)
            pred = fit[:, 0]
            zj = -fit[:, 1:] / dt[j]
            rank_flag = rank_flag or deficient
        drv = np.asarray(problem.driver(float(grid.nodes[j]), x, pred, zj), dtype=float)
        drv_dt = drv * dt[j]
        Y[j, live] = pred + drv_dt
        Z[j, live, :] = zj
        drv_acc[live] += drv_dt

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


def _expectation_operator(xs, coef, gh_x, gh_w, var: float) -> np.ndarray:
    """Matrix of ``y -> sum_q gh_w[q] s_y(x + sqrt(var) gh_x[q])`` at the nodes ``xs``.

    ``coef`` is the coefficient array ``c`` of the cubic spline of the
    identity on ``xs``, reshaped to ``(4 (n - 1), n)``.  The spline ``s_y``
    through a field ``y`` is linear in it: on piece ``i`` it reads
    ``sum_m h^(3 - m) c[m, i] @ y`` with ``h = x - xs[i]``.  Each shifted
    node (clipped to the grid) puts ``gh_w[q] h^(3 - m)`` in column
    ``(m, i)`` of its row of a weight matrix, and the operator is that
    matrix times ``coef``.  The weight matrix is sparse, ``4 n_quad``
    entries a row (repeated columns add up in the product), against
    ``4 (n - 1)`` for a dense one, whose product multithreaded BLAS on two
    vCPUs ran ten times slower than one thread.
    """
    n, pieces = xs.size, xs.size - 1
    shift = xs[:, None] + math.sqrt(var) * gh_x[None, :]
    np.clip(shift, xs[0], xs[-1], out=shift)
    # PPoly's convention: a breakpoint starts the piece on its right, and the
    # top end belongs to the last piece.  The sparse product does not check
    # its column indices, so the clip keeps them in range whatever the input.
    piece = np.clip(np.searchsorted(xs, shift, side="right") - 1, 0, pieces - 1)
    powers = (shift - xs[piece])[..., None] ** np.arange(3, -1, -1)
    cols = np.arange(4) * pieces + piece[..., None]
    per_row = 4 * gh_x.size
    weights = csr_array(
        ((gh_w[None, :, None] * powers).ravel(), cols.ravel(), np.arange(n + 1) * per_row),
        shape=(n, 4 * pieces),
    )
    return weights @ coef


# The oracle's grid-only work is memoised process-wide, so a later solve on
# the same state grid builds none of it; the bounds are stated in
# solve_picard_oracle's docstring.  Keys are the exact floats a solve
# computes, so a hit is the array a fresh build would give, bit for bit.
@lru_cache(maxsize=2)
def _identity_spline(n_space: int, span: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only spline coefficients and gradient matrix of the identity on the state grid.

    The coefficients are those :func:`_expectation_operator` takes; the
    gradient matrix is ``np.gradient`` of the identity along the grid.
    """
    xs = np.linspace(-span, span, n_space)
    # cubic evaluation: linear interpolation systematically inflates convex
    # fields and the bias accumulates linearly in the step count
    coef = CubicSpline(xs, np.eye(n_space), axis=0).c.reshape(4 * (n_space - 1), n_space)
    # E[y(x + dX) dX] = var * d/dx E[y(x + dX)] (Gaussian integration by
    # parts); the convolved field is smooth, so its grid gradient is far more
    # accurate than the raw odd quadrature moment.  np.gradient is linear.
    grad = np.gradient(np.eye(n_space), xs, axis=0)
    coef.setflags(write=False)
    grad.setflags(write=False)
    return coef, grad


def _build_operator(n_space: int, span: float, n_quad: int, var: float) -> np.ndarray:
    """Read-only :func:`_expectation_operator` of step variance ``var`` on the state grid."""
    xs = np.linspace(-span, span, n_space)
    gh_x, gh_w = np.polynomial.hermite_e.hermegauss(n_quad)
    gh_w = gh_w / math.sqrt(2.0 * math.pi)
    op = _expectation_operator(xs, _identity_spline(n_space, span)[0], gh_x, gh_w, var)
    op.setflags(write=False)
    return op


_MEMO_OPERATORS = 32
_grid_operator = lru_cache(maxsize=_MEMO_OPERATORS)(_build_operator)

# oracle state grid: its states, Gauss-Hermite nodes per expectation, and
# the grid's half-width in standard deviations of the whole state path
_N_SPACE = 201
_N_QUAD = 21
_SPAN_SIGMAS = 6.0


def solve_picard_oracle(
    problem_or_transformed,
    ensemble: BrownianEnsemble | None = None,
    iterations: int = 8,
) -> SolutionEnsemble:
    """Fixed-point oracle: iterate the frozen-driver equation on a state grid.

    Takes a plain problem with its ``ensemble``, or a
    :class:`TransformedProblem` alone, solved on the noise it carries.
    Starting from ``(Y, Z) = (0, 0)``, each of ``iterations`` sweeps (a
    positive integer, else :class:`PreconditionError`) solves
    the discrete backward equation with the driver evaluated at the previous
    iterate, on 201 states spanning 6 standard deviations of the
    state either side of 0, using 21-node Gauss-Hermite quadrature for the
    one-step conditional expectations --
    deliberately independent of the regression machinery it is used to check.
    Scalar problems with one noise only; small instances intended.

    The one-step expectation ``E[y(x + sqrt(v) G)]`` of the cubic spline
    through a field is linear in the field and depends only on the step
    variance ``v``.  Each solve builds one spline of the identity, reads its
    coefficients once, and never evaluates it.  For each distinct ``v``
    among the steps, :func:`_expectation_operator` gives the
    ``(201, 201)`` matrix of that map as one product of a sparse weight
    matrix with those coefficients; the weight matrix lives only while its
    operator is built (84 entries a row, 0.2 MB).  Every sweep step is then
    one matrix-vector product.  The spline coefficients and the operators
    are kept process-wide, keyed by ``(201, span)`` and
    ``(201, span, 21, var)`` with the exact floats the solve computes, so a
    later solve on the same state grid builds none of them.  The memo is
    bounded: at most 32 operators (0.32 MB each, 10.3 MB in all) and the
    coefficients and gradient matrix of at most 2 state grids (1.6 MB
    each).  A solve with more distinct step variances than that keeps the
    32 smallest in the memo and builds the others for itself, so solving
    that grid again reuses those 32.  One solve still holds an operator for
    each distinct step variance, so a grid whose step variances all differ
    builds one per step.

    The converged fields are read at each path's state by
    :func:`interp_columns`, with the two fields stacked and the node-major
    states as per-column times: one interval search per (path, node) serves
    both ``Y`` and ``Z``, and every value is the one ``np.interp`` gives,
    node by node and field by field (``tests/wiener_reference.py`` keeps
    that loop).
    """
    check_count("iterations", iterations)
    problem, ensemble, state, state_var = _unpack(problem_or_transformed, ensemble)
    if problem.k != 1 or problem.d != 1:
        raise UnsupportedError("the fixed-point oracle covers k = d = 1 problems")
    grid = ensemble.grid
    _contraction_guard(problem, grid)
    P, n, _ = state.shape
    dt = grid.steps

    total_sd = math.sqrt(float(np.sum(state_var)))
    span = _SPAN_SIGMAS * max(total_sd, 1e-8)
    xs = np.linspace(-span, span, _N_SPACE)

    rule = problem.terminal
    if rule.kind == "first_exit" and rule.coord != 0:
        raise UnsupportedError("oracle exit rule must watch the single coordinate")

    def payoff_on(tnode, x):
        return np.asarray(problem.payoff(np.full(x.shape, tnode), x[:, None]), dtype=float)

    _, grad = _identity_spline(_N_SPACE, span)
    # only the smallest variances go through the memo: a least-recently-used
    # memo asked for more than it keeps in a fixed order would evict each
    # operator before a repeated solve asks for it again
    expect_ops = {
        var: (_grid_operator if k < _MEMO_OPERATORS else _build_operator)(
            _N_SPACE, span, _N_QUAD, var
        )
        for k, var in enumerate(sorted(set(state_var.tolist())))
    }
    mask = rule.outside(xs)

    y_field = np.zeros((n, _N_SPACE))
    z_field = np.zeros((n, _N_SPACE))
    distances = []
    diverging = 0

    for _ in range(iterations):
        y_new = np.zeros_like(y_field)
        z_new = np.zeros_like(z_field)
        y_new[n - 1] = payoff_on(grid.nodes[-1], xs)
        for j in range(n - 2, -1, -1):
            var = float(state_var[j])
            cond = expect_ops[var] @ y_new[j + 1]
            z_new[j] = -(grad @ cond) * math.sqrt(var / dt[j])
            drv = np.asarray(
                problem.driver(float(grid.nodes[j]), xs[:, None], y_field[j], z_field[j][:, None]),
                dtype=float,
            )
            y_new[j] = cond + drv * dt[j]
            if mask.any():
                y_new[j][mask] = payoff_on(grid.nodes[j], xs[mask])
                z_new[j][mask] = 0.0
        dist = float(np.max(np.abs(y_new - y_field)) + np.max(np.abs(z_new - z_field)))
        if distances and dist > distances[-1]:
            diverging += 1
        else:
            diverging = 0
        distances.append(dist)
        y_field, z_field = y_new, z_new

    # the node-major states are the per-column times: one search serves both fields
    fields = np.stack((y_field, z_field))
    Y, Z = interp_columns(xs, fields, state[:, :, 0].T[None], axis=2).transpose(0, 2, 1)
    Z = np.ascontiguousarray(Z).reshape(P, n, 1)
    stop_idx, xi = _terminal(problem, grid, state)
    after_stop = np.arange(n)[None, :] >= stop_idx[:, None]
    Y = np.where(after_stop, xi[:, None], Y)  # C-ordered, as the mask is
    Z[after_stop] = 0.0

    meta = {
        "iterate_distances": distances,
        "diverging": diverging >= 2,
        "state_values": (xs, y_field),
    }
    return SolutionEnsemble(
        grid=grid, Y=Y, Z=Z, stop_idx=stop_idx, scheme="picard", seed=ensemble.seed, metadata=meta
    )


# ---------------------------------------------------------------------------
# closed form for the linear equation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolynomialPayoff:
    """Terminal value ``p(W_T)`` with plain power-basis coefficients ``c0 + c1 x + ...``, by ``polyval``."""

    coefficients: tuple

    def __call__(self, tau, w_tau):
        return polyval(np.asarray(w_tau)[..., 0], self.coefficients)


def _gaussian_poly_mean(coeffs, mean, var):
    # E[p(X)] for X ~ N(mean, var) via the moment recursion
    # M_n = mean M_{n-1} + (n-1) var M_{n-2}.
    deg = len(coeffs) - 1
    M = [1.0, mean]
    for nn in range(2, deg + 1):
        M.append(mean * M[nn - 1] + (nn - 1) * var * M[nn - 2])
    return float(sum(c * M[i] for i, c in enumerate(coeffs)))


def closed_form_linear(
    r: SampledPath, u: SampledPath, payoff: PolynomialPayoff, T: float
) -> float:
    """Exact time-zero value of the linear equation ``f = r y + u z`` at horizon T.

    Under this package's sign convention the value is
    ``exp(int_0^T r) E[p(G)]`` with ``G ~ N(-int_0^T u, T)``; the measure
    shift enters with a minus sign because the martingale integral is added.
    The derivation is validated against the fixed-point oracle in the test
    suite before this function is used as an oracle itself.  ``T`` lies in
    the coefficient grid's range; the integrals of the linear paths ``r``
    and ``u`` run exactly up to it, also when it falls between two nodes.
    """
    if not isinstance(payoff, PolynomialPayoff):
        raise UnsupportedError("closed form supports polynomial terminal values only")
    nodes = r.grid.nodes
    if not T >= 0.0:  # NaN fails too
        raise PreconditionError(f"horizon must be non-negative, got {T!r}")
    if T > nodes[-1] + 1e-12:
        raise PreconditionError("horizon exceeds the coefficient grid")
    ts = nodes[nodes <= T + 1e-12]
    if T > ts[-1] + 1e-12:  # inside an interval: the last piece ends at T
        ts = np.append(ts, T)
    rr, uu = (np.trapezoid(p.at(ts), ts) for p in (r, u))
    mean = _gaussian_poly_mean(payoff.coefficients, -uu, T)
    return math.exp(rr) * mean


# ---------------------------------------------------------------------------
# solution mapping
# ---------------------------------------------------------------------------


def map_solution(
    sol: SolutionEnsemble, clock: TimeChangeMap, direction: str = "from_transformed"
) -> SolutionEnsemble:
    """Carry a solution across the clock.

    ``from_transformed``: ``Y_t = y(phi(t))``, ``Z_t = z(phi(t)) sqrt(phi'(t))``
    onto the clock's source grid.  ``to_transformed`` applies the reciprocal
    scaling onto the target grid.  The two directions compose to the identity
    up to interpolation tolerance.  The times read and the output grid come
    from ``clock.crossing``, ``"forward"`` and ``"inverse"`` respectively,
    which checks that the solution grid covers them.
    """
    if direction == "from_transformed":
        times, out_grid = clock.crossing("forward", sol.grid)
        scale = np.sqrt(clock.density.values)
    elif direction == "to_transformed":
        times, out_grid = clock.crossing("inverse", sol.grid)
        scale = np.sqrt(np.asarray(clock.derivative_at(out_grid.nodes)))
    else:
        raise PreconditionError(f"unknown direction {direction!r}")

    Y = interp_columns(sol.grid.nodes, sol.Y, times, axis=1)
    Z = interp_columns(sol.grid.nodes, sol.Z, times, axis=1) * scale[None, :, None]
    stop_times = sol.grid.nodes[sol.stop_idx]
    if direction == "from_transformed":
        mapped_stop = np.asarray(clock.inverse_at(np.minimum(stop_times, times[-1])))
    else:
        mapped_stop = np.asarray(clock.forward_at(np.minimum(stop_times, clock.source_grid.t_end)))
    stop_idx = np.searchsorted(out_grid.nodes, mapped_stop + 1e-12) - 1
    stop_idx = np.clip(stop_idx, 0, out_grid.n_nodes - 1)
    return SolutionEnsemble(
        grid=out_grid,
        Y=Y,
        Z=Z,
        stop_idx=stop_idx,
        scheme=sol.scheme,
        seed=sol.seed,
        metadata=dict(sol.metadata),
    )


# ---------------------------------------------------------------------------
# verification experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    lhs: float
    rhs: float
    components: dict


# beta and delta of the stability estimate
_STABILITY_BETA = 0.1
_STABILITY_DELTA = 1.0


def stability_gap(
    problem_a: WienerBSDEProblem,
    problem_b: WienerBSDEProblem,
    ensemble: BrownianEnsemble,
    theta: float,
) -> StabilityReport:
    """Both sides of the perturbation-stability estimate, for inspection.

    lhs = |dY(0)|^2 + beta E int e^{theta phi} alpha^2 (|dY|^2 + |dZ|^2)
    rhs = E |e^{theta phi(tau)/2} xi - e^{theta phi(tau')/2} xi'|^2
          + delta^{-1} E int e^{theta phi} |(f - f')(t, Y, Z)/alpha|^2

    with ``beta = 0.1`` and ``delta = 1``.  The estimate asserts such
    constants exist without giving values, so the two sides are returned for
    reporting, never hard-failed internally.
    """
    if theta <= 3.0:
        raise PreconditionError("the stability estimate requires theta > 3")
    if problem_a.k != problem_b.k or problem_a.d != problem_b.d:
        raise PreconditionError("problems must share dimensions")
    clock_grid = problem_a.coeffs.grid
    if not clock_grid.same_as(ensemble.grid):
        raise StructuralError("coefficients and noise must share a grid")
    sol_a = solve_lsmc(problem_a, ensemble)
    sol_b = solve_lsmc(problem_b, ensemble)
    clock = build_phi(problem_a.coeffs, IncreasingProcess.identity(clock_grid))
    grid = ensemble.grid
    phi = np.asarray(clock.forward_at(grid.nodes))
    a2 = problem_a.coeffs.alpha_sq.values
    w = np.exp(theta * phi)
    dt = grid.steps
    P, n = sol_a.Y.shape

    dY = sol_a.Y - sol_b.Y
    dZ = np.sum((sol_a.Z - sol_b.Z) ** 2, axis=2)
    alive = np.arange(n)[None, :] < np.maximum(sol_a.stop_idx, sol_b.stop_idx)[:, None]
    integ = np.sum(
        np.where(alive[:, :-1], (w * a2)[None, :-1] * (dY[:, :-1] ** 2 + dZ[:, :-1]), 0.0) * dt,
        axis=1,
    )
    dy0 = float(np.mean(sol_a.Y[:, 0]) - np.mean(sol_b.Y[:, 0]))
    lhs = dy0**2 + _STABILITY_BETA * float(np.mean(integ))

    tau_a = grid.nodes[sol_a.stop_idx]
    tau_b = grid.nodes[sol_b.stop_idx]
    xi_a = sol_a.Y[np.arange(P), sol_a.stop_idx]
    xi_b = sol_b.Y[np.arange(P), sol_b.stop_idx]
    term_t = float(
        np.mean(
            (
                np.exp(theta * np.asarray(clock.forward_at(tau_a)) / 2.0) * xi_a
                - np.exp(theta * np.asarray(clock.forward_at(tau_b)) / 2.0) * xi_b
            )
            ** 2
        )
    )
    fdiff = np.zeros((P, n - 1))
    for j in range(n - 1):
        wj = ensemble.values[:, j, :]
        fa = np.asarray(problem_a.driver(float(grid.nodes[j]), wj, sol_a.Y[:, j], sol_a.Z[:, j, :]))
        fb = np.asarray(problem_b.driver(float(grid.nodes[j]), wj, sol_a.Y[:, j], sol_a.Z[:, j, :]))
        fdiff[:, j] = (fa - fb) ** 2 / a2[j]
    term_f = float(np.mean(np.sum(np.where(alive[:, :-1], w[None, :-1] * fdiff, 0.0) * dt, axis=1)))
    rhs = term_t + term_f / _STABILITY_DELTA
    return StabilityReport(
        lhs=lhs,
        rhs=rhs,
        components={"dy0_sq": dy0**2, "integral": float(np.mean(integ)), "terminal": term_t, "driver": term_f},
    )


@dataclass(frozen=True)
class ComparisonReport:
    min_gap_pathwise: float
    node_means: np.ndarray
    node_ses: np.ndarray
    violating_nodes: int
    violation_fraction: float


def comparison_experiment(
    problem_a: WienerBSDEProblem,
    problem_b: WienerBSDEProblem,
    ensemble: BrownianEnsemble,
    *,
    seed: int = 0,
) -> ComparisonReport:
    """Order check for a dominated pair: solve both on shared noise, compare Y.

    Dominance of the inputs (driver and payoff) is verified on random probes
    first.  The report counts the grid nodes whose mean gap is below
    ``-3 SE``, and gives the raw pathwise minimum alongside; the caller
    judges them.
    Scalar solutions only: the multidimensional comparison machinery is out
    of scope.
    """
    if problem_a.k != 1 or problem_b.k != 1:
        raise UnsupportedError("comparison covers scalar solutions only")
    t_range = (0.0, ensemble.grid.t_end)
    for t, w, y, _, z, _ in _probe_batches(_COMPARISON_PROBES, _PROBE_BOX, problem_a.d, t_range, seed):
        fa = np.ravel(problem_a.driver(t, w, y, z))
        fb = np.ravel(problem_b.driver(t, w, y, z))
        if np.any(fa < fb - 1e-9):
            raise PreconditionError("driver dominance fails on a probe")
        tau = np.full(y.size, t)
        xa = np.ravel(problem_a.payoff(tau, w))
        xb = np.ravel(problem_b.payoff(tau, w))
        if np.any(xa < xb - 1e-9):
            raise PreconditionError("terminal dominance fails on a probe")

    sol_a = solve_lsmc(problem_a, ensemble)
    sol_b = solve_lsmc(problem_b, ensemble)
    gap = sol_a.Y - sol_b.Y
    P = gap.shape[0]
    means = np.mean(gap, axis=0)
    # the spread of a shifted copy: a gap equal on every path (node 0) then
    # gives exactly 0, not rounding noise that depends on the memory layout
    ses = np.std(gap - gap[:1], axis=0) / math.sqrt(P)
    viol = means < -3.0 * ses
    return ComparisonReport(
        min_gap_pathwise=float(np.min(gap)),
        node_means=means,
        node_ses=ses,
        violating_nodes=int(np.sum(viol)),
        violation_fraction=float(np.mean(viol)),
    )


@dataclass(frozen=True)
class BoundednessReport:
    sup_abs_y: float
    z_accumulation: np.ndarray  # running E int_0^{t ^ tau} |Z|^2


def bounded_solution_check(
    problem: WienerBSDEProblem,
    M: float,
    ensemble: BrownianEnsemble,
    *,
    seed: int = 0,
) -> BoundednessReport:
    """Solve a monotone-decreasing scalar problem through the ``u^2 + 1`` clock.

    Preconditions probed: ``f(t, 0, 0) = 0``, monotone decreasing in y, and
    ``|xi| <= M`` on the realized payoffs.  The clock density used here is
    ``u^2 + 1`` (not the Lipschitz maximum), after which the solve runs with
    the bound-preserving bin regression and maps back; the report gives
    ``sup |Y|`` up to each path's stop, for the caller to compare with
    ``M``, and accumulates ``E int |Z|^2``.  The coefficients and the
    ensemble must share a grid.
    """
    if problem.k != 1:
        raise UnsupportedError("boundedness check covers scalar solutions only")
    if not problem.coeffs.grid.same_as(ensemble.grid):
        raise StructuralError("coefficients and noise must share a grid")
    t_range = (0.0, ensemble.grid.t_end)
    for t, w, y, yp, z, _ in _probe_batches(_BOUNDEDNESS_PROBES, _PROBE_BOX, problem.d, t_range, seed):
        f0 = np.ravel(problem.driver(t, w, np.zeros_like(y), np.zeros_like(z)))
        if np.any(np.abs(f0) > 1e-9):
            raise PreconditionError("driver does not vanish at the origin")
        f1 = np.ravel(problem.driver(t, w, y, z))
        f2 = np.ravel(problem.driver(t, w, yp, z))
        if np.any((y - yp) * (f1 - f2) > 1e-9):
            raise PreconditionError("driver is not monotone decreasing on a probe")

    u = problem.coeffs.u
    density = u.with_values(u.values**2 + 1.0)
    clock = build_clock_from_density(density, eps=1.0)
    transformed = transform_driver(problem, clock, W=ensemble)

    _, xi = _terminal(transformed.problem, transformed.grid, transformed.state)
    if np.any(np.abs(xi) > M + 1e-9):
        raise PreconditionError("realized terminal values exceed the declared bound")

    tilde = solve_lsmc(transformed, basis="bins")
    sol = map_solution(tilde, clock, "from_transformed")
    upto = np.arange(sol.Y.shape[1])[None, :] <= sol.stop_idx[:, None]
    sup_abs = float(np.max(np.abs(np.where(upto, sol.Y, 0.0))))
    z2 = np.sum(sol.Z**2, axis=2)
    alive = np.arange(sol.Y.shape[1])[None, :] < sol.stop_idx[:, None]
    zacc = np.cumsum(
        np.mean(np.where(alive[:, :-1], z2[:, :-1], 0.0), axis=0) * sol.grid.steps
    )
    return BoundednessReport(sup_abs_y=sup_abs, z_accumulation=zacc)
