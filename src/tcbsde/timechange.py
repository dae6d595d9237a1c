"""Discrete clocks, generalized inverses and time-changed paths.

Everything here lives on finite time grids with a declared interpolation rule
(piecewise-constant-left or piecewise-linear).  An increasing process with
density ``alpha_sq`` against an integrator ``v`` defines a clock

    phi(t) = integral_0^t alpha_sq dv

whose generalized inverse

    C(s) = inf{t : A(t) > s},    inf(empty set) = +inf

maps the new time scale back.  Continuous-time identities (integral
substitution, round trips, derivative reciprocity) become refinement-limit
properties; ``substitution_check`` measures the discretization residual
rather than pretending it is zero.

Quadrature is left-point Stieltjes throughout, matching the predictable
integrand convention of the stochastic integrals elsewhere in the package.

All types are immutable after construction and all operations are pure, so
instances can be shared freely across threads and path ensembles.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, InvariantError, PreconditionError, StructuralError

PREVIOUS = "previous"  # piecewise-constant-left: hold the left node's value
LINEAR = "linear"

_INTERP_RULES = (PREVIOUS, LINEAR)
_SCALAR_TIMES = (float, int, np.floating, np.integer)


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time nodes starting at 0."""

    nodes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", _readonly(self.nodes))
        if self.nodes.ndim != 1 or self.nodes.size < 2:
            raise InvariantError("TimeGrid needs at least 2 one-dimensional nodes")
        if self.nodes[0] != 0.0:
            raise InvariantError("TimeGrid must start at 0")
        if not np.all(np.diff(self.nodes) > 0):
            raise InvariantError("TimeGrid nodes must be strictly increasing")

    @classmethod
    def uniform(cls, t_end: float, n_nodes: int) -> "TimeGrid":
        if n_nodes < 2:
            raise InvariantError(f"TimeGrid needs at least 2 nodes, got {n_nodes}")
        return cls(np.linspace(0.0, float(t_end), int(n_nodes)))

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @property
    def t_end(self) -> float:
        return float(self.nodes[-1])

    @property
    def steps(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def max_step(self) -> float:
        return float(np.max(self.steps))

    def same_as(self, other: "TimeGrid") -> bool:
        return self.nodes.shape == other.nodes.shape and np.array_equal(self.nodes, other.nodes)


@dataclass(frozen=True)
class SampledPath:
    """One value per grid node plus the rule for evaluating between nodes.

    ``values`` may be scalar per node (shape ``(n,)``) or vector/matrix per
    node (leading axis indexes nodes).  The interpolation rule is fixed at
    construction.
    """

    grid: TimeGrid
    values: np.ndarray
    interpolation: str = LINEAR

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        if self.interpolation not in _INTERP_RULES:
            raise InvariantError(f"unknown interpolation rule {self.interpolation!r}")
        if self.values.shape[0] != self.grid.n_nodes:
            raise InvariantError("need exactly one value per grid node")

    @property
    def is_scalar(self) -> bool:
        return self.values.ndim == 1

    @cached_property
    def _scalar_table(self) -> tuple[list, list] | None:
        """Nodes and values as Python floats, for scalar lookups.

        ``None`` for a vector-valued path, which has no scalar lookup.
        ``values`` is read-only, and a new path (``with_values``,
        ``dataclasses.replace``) starts with no table, so it never goes stale.
        """
        if self.is_scalar:
            return self.grid.nodes.tolist(), self.values.tolist()
        return None

    def _lookup(self, t: float) -> float:
        """Value of a scalar path at the Python float ``t``, as a Python float.

        The array path of ``at`` without NumPy: ``bisect_right`` finds the
        interval in the cached ``_scalar_table``, and a linear path
        interpolates with ``np.interp``'s own arithmetic, so the bits and the
        ``DomainError`` messages are the array path's.
        """
        xs, ys = self._scalar_table
        if not xs[0] - 1e-12 <= t <= xs[-1] + 1e-12:
            if not math.isfinite(t):
                raise DomainError("evaluation at non-finite time")
            raise DomainError(f"evaluation outside grid range [{xs[0]}, {xs[-1]}]")
        k = bisect_right(xs, t)  # how many nodes lie at or before t
        if not k:  # inside the slack below the grid
            return ys[0]
        x0, y0 = xs[k - 1], ys[k - 1]
        if t == x0 or t >= xs[-1] or self.interpolation == PREVIOUS:
            return y0
        x1, y1 = xs[k], ys[k]
        slope = (y1 - y0) / (x1 - x0)
        y = slope * (t - x0) + y0
        if y != y:  # NaN: np.interp tries the other end, then a flat step
            y = slope * (t - x1) + y1
            if y != y and y0 == y1:
                y = y0
        return y

    def at(self, t) -> np.ndarray:
        """Evaluate the path at time(s) ``t`` under the declared rule.

        A scalar time (Python or NumPy float or int) on a scalar path is
        ``_lookup`` wrapped in a NumPy scalar, with the same bits and the
        same errors as the array path; transformed coefficients call it once
        per solver step.
        """
        if isinstance(t, _SCALAR_TIMES) and self._scalar_table is not None:
            return np.float64(self._lookup(float(t)))
        nodes = self.grid.nodes
        t = np.asarray(t, dtype=float)
        if np.any(~np.isfinite(t)):
            raise DomainError("evaluation at non-finite time")
        if np.any(t < nodes[0] - 1e-12) or np.any(t > nodes[-1] + 1e-12):
            raise DomainError(
                f"evaluation outside grid range [{nodes[0]}, {nodes[-1]}]"
            )
        tc = np.clip(t, nodes[0], nodes[-1])
        if self.interpolation == PREVIOUS:
            idx = np.searchsorted(nodes, tc, side="right") - 1
            idx = np.clip(idx, 0, self.grid.n_nodes - 1)
            return self.values[idx]
        if self.is_scalar:
            return np.interp(tc, nodes, self.values)
        flat = self.values.reshape(self.grid.n_nodes, -1)
        cols = [np.interp(tc, nodes, flat[:, j]) for j in range(flat.shape[1])]
        out = np.stack(cols, axis=-1)
        return out.reshape(np.shape(tc) + self.values.shape[1:])

    def with_values(self, values, interpolation=None) -> "SampledPath":
        return SampledPath(self.grid, values, interpolation or self.interpolation)


@dataclass(frozen=True)
class IncreasingProcess:
    """Non-decreasing scalar path starting at 0, with a declared strictness floor.

    When ``eps > 0`` the increments must satisfy ``dA >= eps * dt`` on every
    grid step, which turns the hypothesis "density bounded below" into a
    checkable invariant.
    """

    path: SampledPath
    eps: float = 0.0

    def __post_init__(self):
        if not self.path.is_scalar:
            raise InvariantError("IncreasingProcess requires a scalar path")
        v = self.path.values
        if v[0] != 0.0:
            raise InvariantError("increasing process must start at 0")
        dv = np.diff(v)
        if np.any(dv < 0):
            raise InvariantError("values must be non-decreasing along the grid")
        if self.eps < 0:
            raise InvariantError("eps floor must be non-negative")
        if self.eps > 0:
            floor = self.eps * self.path.grid.steps
            if np.any(dv < floor * (1.0 - 1e-9)):
                raise InvariantError(
                    f"increments fall below the declared floor eps={self.eps}"
                )

    @property
    def grid(self) -> TimeGrid:
        return self.path.grid

    @property
    def values(self) -> np.ndarray:
        return self.path.values

    def at(self, t):
        return self.path.at(t)

    @classmethod
    def identity(cls, grid: TimeGrid) -> "IncreasingProcess":
        return cls(SampledPath(grid, grid.nodes.copy(), LINEAR), eps=1.0)


@dataclass(frozen=True)
class TimeChangeMap:
    """A clock, its generalized inverse on a target grid, and the clock density.

    ``density`` is ``alpha_sq`` against the integrator on the source grid, and
    it is the only source of the time-change derivative: ``derivative_at``
    composes ``1 / density(inverse(t))``, which keeps products like
    ``derivative(t) * alpha_sq(inverse(t))`` at 1 to rounding.
    """

    forward: IncreasingProcess
    inverse: SampledPath
    density: SampledPath  # alpha_sq against v, on the source grid

    @property
    def source_grid(self) -> TimeGrid:
        return self.forward.grid

    @property
    def target_grid(self) -> TimeGrid:
        return self.inverse.grid

    def forward_at(self, t):
        return self.forward.at(t)

    def inverse_at(self, s):
        return self.inverse.at(s)

    def derivative_at(self, s):
        return 1.0 / self.density.at(self.inverse.at(s))

    def density_at(self, t):
        return self.density.at(t)

    def inverse_density_at(self, u) -> tuple[float, float]:
        """``(s, alpha_sq(s))`` with ``s = inverse(u)``, for one time, as Python floats.

        One scalar clock read for the transformed coefficients, which are the
        base ones at ``s`` scaled by ``1 / alpha_sq(s)``.  Same bits and same
        ``DomainError`` as ``inverse_at`` followed by ``density_at``.
        """
        s = self.inverse._lookup(float(u))
        return s, self.density._lookup(s)

    @classmethod
    def identity(cls, grid: TimeGrid) -> "TimeChangeMap":
        return cls(
            forward=IncreasingProcess.identity(grid),
            inverse=SampledPath(grid, grid.nodes.copy(), LINEAR),
            density=SampledPath(grid, np.ones(grid.n_nodes), LINEAR),
        )


@dataclass(frozen=True)
class CoefficientProcesses:
    """Lipschitz/monotonicity coefficient processes and the clock density built from them.

    ``alpha_sq`` dominates ``r`` and ``u**2`` (or ``max(-r, 0)``, ``l`` and
    ``u**2`` in monotone mode) and never falls below the declared floor
    ``eps``, so the clock built from it is strictly increasing.
    """

    r: SampledPath
    u: SampledPath
    alpha_sq: SampledPath
    eps: float
    mode: str = "lipschitz"  # "lipschitz" or "monotone"
    l: SampledPath | None = None

    def __post_init__(self):
        if self.eps <= 0:
            raise InvariantError("eps floor must be strictly positive")
        if self.mode not in ("lipschitz", "monotone"):
            raise InvariantError(f"unknown mode {self.mode!r}")
        grid = self.r.grid
        for p in (self.u, self.alpha_sq) + ((self.l,) if self.l is not None else ()):
            if not grid.same_as(p.grid):
                raise StructuralError("coefficient processes must share a grid")
        a2 = self.alpha_sq.values
        if np.any(a2 < self.eps * (1.0 - 1e-12)):
            raise InvariantError("alpha_sq falls below the declared eps floor")
        if self.mode == "lipschitz":
            lower = np.maximum(self.r.values, self.u.values**2)
        else:
            if self.l is None:
                raise InvariantError("monotone mode requires the growth coefficient l")
            lower = np.maximum.reduce(
                [np.maximum(-self.r.values, 0.0), self.l.values, self.u.values**2]
            )
        if np.any(a2 < lower * (1.0 - 1e-12)):
            raise InvariantError("alpha_sq must dominate the declared coefficients")

    @property
    def grid(self) -> TimeGrid:
        return self.r.grid

    @classmethod
    def lipschitz(cls, r: SampledPath, u: SampledPath, eps: float) -> "CoefficientProcesses":
        a2 = np.maximum.reduce([r.values, u.values**2, np.full(r.values.shape, eps)])
        return cls(r=r, u=u, alpha_sq=r.with_values(a2), eps=eps, mode="lipschitz")

    @classmethod
    def monotone(
        cls, r: SampledPath, l: SampledPath, u: SampledPath, eps: float
    ) -> "CoefficientProcesses":
        a2 = np.maximum.reduce(
            [np.maximum(-r.values, 0.0), l.values, u.values**2, np.full(r.values.shape, eps)]
        )
        return cls(r=r, u=u, alpha_sq=r.with_values(a2), eps=eps, mode="monotone", l=l)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def integrate_stieltjes(h: SampledPath, v: IncreasingProcess) -> SampledPath:
    """Running integral of ``h`` against ``dv`` by left-point Stieltjes sums.

    ``h`` and ``v`` must share a grid.  The output is non-decreasing whenever
    ``h >= 0`` and is continuous piecewise-linear in time.
    """
    if not h.grid.same_as(v.grid):
        raise StructuralError("integrand and integrator live on different grids")
    if not h.is_scalar:
        raise StructuralError("integrand must be scalar per node")
    dv = np.diff(v.values)
    if np.any(dv < 0):
        raise InvariantError("integrator is decreasing")
    out = np.concatenate([[0.0], np.cumsum(h.values[:-1] * dv)])
    return SampledPath(h.grid, out, LINEAR)


def _integral_at(integral: SampledPath, h: SampledPath, x: SampledPath, t) -> np.ndarray:
    # Continuous extension of the left-point sum: finished intervals plus
    # h(left node) * (X(t) - X(left node)) on the straddled one.  Exact for
    # h == const regardless of X's interpolation rule.
    nodes = integral.grid.nodes
    t = np.asarray(t, dtype=float)
    idx = np.clip(np.searchsorted(nodes, t, side="right") - 1, 0, nodes.size - 1)
    base = integral.values[idx]
    return base + h.values[idx] * (x.at(t) - x.values[idx])


def generalized_inverse(A: IncreasingProcess, target: TimeGrid) -> SampledPath:
    """Right-continuous inverse ``C(s) = inf{t : A(t) > s}`` sampled on ``target``.

    Levels at or above ``sup A`` get the +inf sentinel (``inf`` of an empty
    set), never an error.
    """
    nodes = A.grid.nodes
    vals = A.values
    s = target.nodes
    out = np.empty(s.size)
    k = np.searchsorted(vals, s, side="right")  # first index with A > s
    overflow = k >= vals.size
    out[overflow] = math.inf
    ok = ~overflow
    if A.path.interpolation == PREVIOUS:
        out[ok] = nodes[k[ok]]
    else:
        ki = k[ok]
        si = s[ok]
        res = np.empty(ki.size)
        at_zero = ki == 0
        res[at_zero] = nodes[0]
        inner = ~at_zero
        lo = ki[inner] - 1
        hi = ki[inner]
        denom = vals[hi] - vals[lo]
        theta = np.where(denom > 0, (si[inner] - vals[lo]) / np.where(denom > 0, denom, 1.0), 1.0)
        res[inner] = nodes[lo] + theta * (nodes[hi] - nodes[lo])
        out[ok] = res
    return SampledPath(target, out, LINEAR)


def build_phi(
    coeffs: CoefficientProcesses,
    v: IncreasingProcess,
    target: TimeGrid | str | None = None,
) -> TimeChangeMap:
    """Clock ``phi(t) = integral alpha_sq dv`` with its inverse and density.

    The inverse is populated on ``target``: a grid, the string ``"image"`` for
    the exact image ``phi(nodes)`` of the source grid (so mapped solutions land
    on nodes), or None for a uniform grid spanning ``[0, phi(end)]`` with as
    many nodes as ``v``'s grid.  The map keeps ``alpha_sq`` as its density,
    whose floor ``CoefficientProcesses`` already checked.
    """
    if not coeffs.grid.same_as(v.grid):
        raise StructuralError("coefficients and integrator live on different grids")
    return build_clock_from_density(coeffs.alpha_sq, v, eps=coeffs.eps, target=target)


def build_clock_from_density(
    alpha_sq: SampledPath,
    v: IncreasingProcess,
    eps: float,
    target: TimeGrid | str | None = None,
) -> TimeChangeMap:
    """Clock from an explicit density path; shared by the Wiener and chain builds.

    The map keeps ``alpha_sq`` as its density; the derivative of the inverse,
    ``1 / alpha_sq(inverse(t))``, is composed from it on demand.
    """
    if not alpha_sq.grid.same_as(v.grid):
        raise StructuralError("density and integrator live on different grids")
    phi_path = integrate_stieltjes(alpha_sq, v)
    dv = np.diff(v.values)
    dt = v.grid.steps
    slope_floor = eps * float(np.min(dv / dt))
    forward = IncreasingProcess(phi_path, eps=max(slope_floor, 0.0))
    if target is None:
        target = TimeGrid.uniform(float(phi_path.values[-1]), v.grid.n_nodes)
    elif target == "image":
        target = TimeGrid(phi_path.values.copy())
    inverse_raw = generalized_inverse(forward, target)
    inv_vals = inverse_raw.values.copy()
    # The strict inverse returns the +inf sentinel at s = sup(phi).  A
    # strictly increasing clock continues past its sampled range, so the
    # continuation value at the closed top of the range is the grid end.
    sup = float(phi_path.values[-1])
    at_top = ~np.isfinite(inv_vals) & (target.nodes <= sup * (1.0 + 1e-12) + 1e-300)
    inv_vals[at_top] = v.grid.t_end
    return TimeChangeMap(
        forward=forward, inverse=SampledPath(target, inv_vals, LINEAR), density=alpha_sq
    )


def time_change_path(X: SampledPath, C: TimeChangeMap, direction: str) -> SampledPath:
    """Compose a path with the clock: ``X_tilde(t) = X(C(t))``.

    ``direction="inverse"`` reads the time change off ``C.inverse`` (the usual
    substitution), ``direction="forward"`` off the clock itself (undoing it).
    The output lives on the corresponding grid of ``C`` and keeps ``X``'s
    interpolation rule.
    """
    if direction == "inverse":
        grid = C.target_grid
        times = C.inverse.values
    elif direction == "forward":
        grid = C.source_grid
        times = C.forward.values
    else:
        raise PreconditionError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    bad = ~np.isfinite(times)
    if np.any(bad):
        raise StructuralError(
            f"clock does not cover the requested range (first offending node "
            f"t={grid.nodes[np.argmax(bad)]})"
        )
    lo, hi = X.grid.nodes[0], X.grid.nodes[-1]
    out_of_range = (times < lo - 1e-12) | (times > hi + 1e-12)
    if np.any(out_of_range):
        j = int(np.argmax(out_of_range))
        raise StructuralError(
            f"time-changed node t={grid.nodes[j]} maps to {times[j]} outside the "
            f"path's grid [{lo}, {hi}]"
        )
    return SampledPath(grid, X.at(times), X.interpolation)


def substitution_check(h: SampledPath, X: SampledPath, C: TimeChangeMap) -> float:
    """Discretization residual of the integral substitution identity.

    Returns ``max_t | int_0^{C(t)} h dX  -  int_0^t h_tilde dX_tilde |`` over
    the target grid, where ``h_tilde = h o C`` and ``X_tilde = X o C``.  The
    continuous-time identity makes the true value 0; the return is pure
    quadrature error and contracts under grid refinement for smooth inputs.
    """
    if not h.grid.same_as(X.grid):
        raise StructuralError("integrand and integrator live on different grids")
    # X only needs finite variation, so the running sum is taken directly.
    lhs_vals = np.concatenate([[0.0], np.cumsum(h.values[:-1] * np.diff(X.values))])
    lhs_running = SampledPath(h.grid, lhs_vals, LINEAR)
    times = C.inverse.values
    if np.any(~np.isfinite(times)):
        raise StructuralError("clock inverse leaves the integrand's grid")
    lhs = _integral_at(lhs_running, h, X, times)
    h_t = time_change_path(h, C, "inverse")
    x_t = time_change_path(X, C, "inverse")
    rhs = np.concatenate([[0.0], np.cumsum(h_t.values[:-1] * np.diff(x_t.values))])
    return float(np.max(np.abs(lhs - rhs)))


def terminal_clock(t: float, tau: float) -> float:
    """The horizon-squashing clock in stopped form, always in [0, 1).

    Equals ``t / (1 + t)`` up to the horizon ``tau`` and freezes there; time
    stopped at the terminal instant accrues nothing.
    """
    s = min(t, tau)
    return s / (1.0 + s)


def terminal_clock_inverse(t: float) -> float:
    if t >= 1.0:
        raise DomainError("the squashed horizon lives in [0, 1); inverse undefined at t >= 1")
    return t / (1.0 - t)


def terminal_clock_derivative(t: float) -> float:
    if t >= 1.0:
        raise DomainError("derivative undefined at t >= 1")
    return (1.0 - t) ** -2


# nodes of both grids of normalize_terminal_time
_TERMINAL_CLOCK_NODES = 101


def normalize_terminal_time(tau: float) -> TimeChangeMap:
    """Map a finite (possibly random, per-path) horizon onto a sub-unit one, on 101-node grids.

    The forward clock ``t / (1 + min(tau, t))`` squashes ``[0, tau]`` into
    ``[0, tau/(1+tau)]`` which stays strictly below 1; the inverse
    ``t / (1 - t)`` is sampled on the squashed range, and the density
    ``(1 + t)**-2`` of ``t / (1 + t)`` on the source grid gives its derivative
    ``(1 - t)**-2``, exact at both ends of the range (the density is linear
    between source nodes).  A degenerate ``tau = 0`` yields a zero transformed horizon; the
    map is still returned on a token positive range.
    """
    if not np.isfinite(tau) or tau < 0:
        raise PreconditionError("tau must be finite and non-negative")
    span = tau if tau > 0 else 1.0
    src = TimeGrid.uniform(span, _TERMINAL_CLOCK_NODES)
    fwd_vals = np.array([terminal_clock(t, tau) for t in src.nodes])
    forward = IncreasingProcess(SampledPath(src, fwd_vals, LINEAR), eps=0.0)
    horizon = terminal_clock(tau, tau)  # = tau / (1 + tau) < 1
    tgt_end = horizon if horizon > 0 else 0.5
    tgt = TimeGrid.uniform(tgt_end, _TERMINAL_CLOCK_NODES)
    inv_vals = np.array([terminal_clock_inverse(s) for s in tgt.nodes])
    return TimeChangeMap(
        forward=forward,
        inverse=SampledPath(tgt, inv_vals, LINEAR),
        density=SampledPath(src, (1.0 + src.nodes) ** -2, LINEAR),
    )
