"""Discrete clocks, their exact inverses and time-changed paths.

Paths live on finite time grids, interpolated linearly between nodes.  A
clock density ``alpha_sq``, positive and linear between its nodes, defines a
clock

    phi(t) = integral_0^t alpha_sq ds

that is quadratic between nodes and strictly increasing.  Its node values
are trapezoid sums, and its inverse ``C = phi^{-1}``, which maps the new
time scale back, is read in closed form between nodes (see
:class:`TimeChangeMap`).  So the identities of the clock alone (round
trips, derivative reciprocity) hold to rounding.  Those that integrate one
sampled path against another, such as the integral substitution, are
refinement-limit properties: ``substitution_check`` measures the
discretization residual rather than pretending it is zero.  Its sums are
left-point Stieltjes sums, matching the predictable integrand convention
of the stochastic integrals elsewhere in the package.

All types are immutable after construction and all operations are pure, so
instances can be shared freely across threads and path ensembles.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, InvariantError, PreconditionError, StructuralError, check_count, check_positive

LINEAR = "linear"

# how far past either end of its grid a path may be read, and a clock may reach
_SLACK = 1e-12
_SCALAR_TIMES = (float, int, np.floating, np.integer)


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _check_times(t: np.ndarray, lo: float, hi: float) -> None:
    """The ``DomainError`` of a read at times ``t`` of a range ``[lo, hi]``, up to ``_SLACK`` past either end."""
    if np.any(~np.isfinite(t)):
        raise DomainError("evaluation at non-finite time")
    if np.any(t < lo - _SLACK) or np.any(t > hi + _SLACK):
        raise DomainError(f"evaluation outside grid range [{lo}, {hi}]")


def _interval_index(nodes: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``np.searchsorted(nodes, times, side="right") - 1`` for increasing ``nodes``.

    ``k`` with ``nodes[k] <= t < nodes[k + 1]``: -1 below the grid,
    ``nodes.size - 1`` at or past the top node and for NaN.  The first guess
    is where ``t`` falls on the even grid from ``nodes[0]`` to ``nodes[-1]``;
    ``np.searchsorted`` then runs only on the times the guess misses, so the
    result is the search's whatever the guess.  On an evenly spaced grid
    the guess misses only next to a node; on 2,000 x 51 oracle states it
    took under a third of the time of searching them all.
    """
    n = nodes.size
    # the guess is k + 1, from 0 to n; fmin takes the number over a NaN, so
    # NaN lands at the top node
    with np.errstate(all="ignore"):
        guess = (times - nodes[0]) * ((n - 1) / (nodes[-1] - nodes[0])) + 1.0
    np.fmin(guess, n, out=guess)
    np.fmax(guess, 0, out=guess)
    k = guess.astype(np.intp)  # truncation is the floor here
    # the guess holds where the grid padded with -inf and inf brackets the
    # time (a NaN time fails no test and keeps the top node)
    padded = np.concatenate(([-np.inf], nodes, [np.inf]))
    miss = (padded.take(k) > times) | (padded[1:].take(k) <= times)
    k -= 1
    if miss.any():
        k[miss] = np.searchsorted(nodes, times[miss], side="right") - 1
    return k


def interp_columns(nodes: np.ndarray, values, times: np.ndarray, axis: int = 0) -> np.ndarray:
    """``np.interp(t, nodes, column)`` for every column of ``values`` along ``axis``, bit for bit.

    The kernel of every read of a field across a grid: the mappers across
    the clock, vector-valued paths, and the oracle's converged fields read
    at each path's state.  ``values`` holds one entry per node along
    ``axis``, with any shape around it; the result holds one entry per time
    there instead, C-ordered.  ``times`` is either 1-D, shared by every
    column, or has ``values.ndim`` axes and broadcasts against ``values``
    off ``axis`` (per-column times; the result then has the broadcast
    shape).  One search of the times serves every column, and one gather,
    ``np.take_along_axis`` at each time's interval, reads both kinds of
    times, with one index per time.  The arithmetic and edge rules are
    ``np.interp``'s: below the grid the first value, at or past the top node
    the last, exactly on a node that node's value; inside an interval
    ``slope * (t - x0) + y0``, where that is NaN ``slope * (t - x1) + y1``,
    and where that is NaN too and ``y0 == y1``, ``y0``; a NaN time gives
    NaN.  Each interval's slope ``(y1 - y0) / (x1 - x0)`` is computed once
    per column, as ``np.diff`` of the values over ``np.diff`` of the nodes,
    and read at every time in the interval: the bits of computing it at each
    time, with one subtraction and one division per interval.  Like
    ``np.interp`` it raises no floating-point warnings.
    """
    values = np.ascontiguousarray(values, dtype=float)
    n = nodes.size
    along = [-1 if a == axis else 1 for a in range(values.ndim)]  # a 1-D array laid along axis
    times = np.ascontiguousarray(times.reshape(along) if times.ndim == 1 else times)
    k = _interval_index(nodes, times)  # -1 below, n - 1 at or past the top
    lo = np.clip(k, 0, n - 2)
    x0 = nodes.take(lo)

    def read(a, shift=0):
        return np.take_along_axis(a, lo + shift, axis=axis)

    # np.interp raises no floating-point warnings
    with np.errstate(all="ignore"):
        slopes = np.diff(values, axis=axis) / np.diff(nodes).reshape(along)
        y0 = read(values)
        out = read(slopes)
        out *= times - x0
        out += y0
        bad = np.isnan(out)
        if bad.any():
            y1 = read(values, 1)
            np.copyto(out, read(slopes) * (times - nodes[1:].take(lo)) + y1, where=bad)
            np.copyto(out, y0, where=bad & np.isnan(out) & (y0 == y1))
    top = values.take([n - 1], axis=axis)
    edges = ((k < 0) | (x0 == times), y0), (k == n - 1, top), (np.isnan(times), times)
    for mask, value in edges:  # later rules win
        if mask.any():
            np.copyto(out, value, where=mask)
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
        """``n_nodes`` equally spaced nodes on ``[0, t_end]``; ``n_nodes`` is an integer of at least 2."""
        n_nodes = check_count("node count", n_nodes, least=2, error=InvariantError)
        return cls(np.linspace(0.0, float(t_end), n_nodes))

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
    """One value per grid node, linear between nodes.

    ``values`` may be scalar per node (shape ``(n,)``) or vector/matrix per
    node (leading axis indexes nodes).  ``interpolation`` admits ``LINEAR``
    only; it stays a field for the callers that pass it positionally.
    """

    grid: TimeGrid
    values: np.ndarray
    interpolation: str = LINEAR

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        if self.interpolation != LINEAR:
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
        interval in the cached ``_scalar_table``, and the value comes from
        ``np.interp``'s own arithmetic, so the bits and the
        ``DomainError`` messages are the array path's.
        """
        xs, ys = self._scalar_table
        if not xs[0] - _SLACK <= t <= xs[-1] + _SLACK:
            if not math.isfinite(t):
                raise DomainError("evaluation at non-finite time")
            raise DomainError(f"evaluation outside grid range [{xs[0]}, {xs[-1]}]")
        k = bisect_right(xs, t)  # how many nodes lie at or before t
        if not k:  # inside the slack below the grid
            return ys[0]
        x0, y0 = xs[k - 1], ys[k - 1]
        if t == x0 or t >= xs[-1]:
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
        """Evaluate the path at time(s) ``t``, up to ``1e-12`` past either grid end.

        ``np.interp`` on a scalar path, :func:`interp_columns` on a vector-valued
        one.  A scalar time (Python or NumPy float or int) on a scalar path is
        ``_lookup`` wrapped in a NumPy scalar, with the same bits and the
        same errors as the array path; transformed coefficients call it once
        per solver step.
        """
        if isinstance(t, _SCALAR_TIMES) and self._scalar_table is not None:
            return np.float64(self._lookup(float(t)))
        nodes = self.grid.nodes
        t = np.asarray(t, dtype=float)
        _check_times(t, nodes[0], nodes[-1])
        if self.is_scalar:
            return np.interp(t, nodes, self.values)
        out = interp_columns(nodes, self.values, t.ravel())
        return out.reshape(t.shape + self.values.shape[1:])

    def with_values(self, values) -> "SampledPath":
        return SampledPath(self.grid, values)


@dataclass(frozen=True)
class IncreasingProcess:
    """Finite, non-decreasing scalar path starting at 0, with a declared strictness floor.

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
        if not np.all(np.isfinite(v)):
            raise InvariantError("increasing process values must be finite")
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


def _invert_clock(nodes: np.ndarray, phi: np.ndarray, a2: np.ndarray, u: np.ndarray):
    """``(s, alpha_sq(s))`` with ``phi(s) = u`` for an array ``u`` inside the clock range.

    The array form of ``TimeChangeMap``'s scalar read, with the same
    operations in the same order, so the bits are the same: one search of
    the clock's node values, then the closed form on each level's interval.
    Levels inside the slack below the range read the first node, levels at
    or past its top the last.  ``u`` is not checked here.
    """
    n = nodes.size
    k = np.searchsorted(phi, u, side="right") - 1  # -1 below the clock, n - 1 at or past its top
    j = np.clip(k, 0, n - 2)
    t0, a = nodes.take(j), a2.take(j)
    b = (a2.take(j + 1) - a) / (nodes.take(j + 1) - t0)
    r = u - phi.take(j)
    h = 2.0 * r / (a + np.sqrt(a * a + 2.0 * b * r))
    s, d = t0 + h, a + b * h
    for edge, i in ((k < 0, 0), (k == n - 1, n - 1)):
        if edge.any():
            s[edge], d[edge] = nodes[i], a2[i]
    return s, d


@dataclass(frozen=True)
class TimeChangeMap:
    """A clock ``phi``, its inverse on a target grid, and the clock density.

    ``density`` is ``alpha_sq`` on the source grid, positive and linear
    between nodes, and ``forward`` holds ``phi(t) = integral_0^t alpha_sq ds``
    at the source nodes.  So ``phi`` is quadratic between nodes, and the
    reads evaluate it and its inverse exactly there.  On the interval from
    ``t_k``, write ``alpha_sq = a + b h`` at ``t_k + h``.  Then
    ``phi(t_k + h) = phi(t_k) + h (a + b h / 2)``, and the level ``u``, with
    ``r = u - phi(t_k)``, is reached at

        s = t_k + 2 r / (a + sqrt(a**2 + 2 b r)),

    a form that stays stable as ``b -> 0``.  ``derivative_at`` is
    ``1 / alpha_sq(s)``, the exact derivative of ``inverse_at``, so
    products like ``derivative(u) * alpha_sq(inverse(u))`` are 1 to
    rounding.  ``inverse`` holds the inverse at the target nodes, for
    ``crossing``; a target node past the clock's top holds ``+inf``, the
    infimum of an empty set, which ``crossing`` rejects.
    """

    forward: IncreasingProcess
    inverse: SampledPath
    density: SampledPath  # alpha_sq on the source grid

    @property
    def source_grid(self) -> TimeGrid:
        return self.forward.grid

    @property
    def target_grid(self) -> TimeGrid:
        return self.inverse.grid

    @cached_property
    def _scalar_table(self) -> tuple[list, list, list]:
        """Source nodes, clock values and densities as Python floats, for the scalar read.

        The lists of the forward's and the density's own ``_scalar_table``:
        a clock keeps no copy of its own.
        """
        nodes, phi = self.forward.path._scalar_table
        return nodes, phi, self.density._scalar_table[1]

    def forward_at(self, t):
        """``phi`` at time(s) ``t`` of the source grid, quadratic between nodes, up to ``1e-12`` past either end."""
        nodes, phi, a2 = self.source_grid.nodes, self.forward.values, self.density.values
        t = np.asarray(t, dtype=float)
        _check_times(t, nodes[0], nodes[-1])
        n = nodes.size
        k = np.searchsorted(nodes, t, side="right") - 1
        j = np.clip(k, 0, n - 2)
        h = t - nodes[j]
        b = (a2[j + 1] - a2[j]) / (nodes[j + 1] - nodes[j])
        out = np.where(k < 0, phi[0], np.where(k == n - 1, phi[-1], phi[j] + h * (a2[j] + 0.5 * b * h)))
        return out[()]

    def _read(self, u) -> tuple:
        """``inverse_density_at`` in NumPy types: ``float64`` scalars for one time."""
        u = np.asarray(u, dtype=float)
        if u.ndim:
            return self.inverse_density_at(u)
        s, d = self.inverse_density_at(float(u))
        return np.float64(s), np.float64(d)

    def inverse_at(self, u):
        return self._read(u)[0]

    def derivative_at(self, u):
        return 1.0 / self._read(u)[1]

    def crossing(self, direction: str, grid: TimeGrid) -> tuple[np.ndarray, TimeGrid]:
        """Query times and output grid for carrying values on ``grid`` across the clock.

        ``"inverse"`` reads ``grid`` at the inverse's values, onto the target
        grid; ``"forward"`` reads it at the clock's values, onto the source
        grid.  Every query time must be finite and inside ``grid``'s range
        up to ``SampledPath.at``'s slack of ``1e-12``, or ``grid`` does not
        cover the clock range and this raises :class:`StructuralError`.
        Every mapper that reads a path or a solution through the clock checks
        its range here and nowhere else.
        """
        if direction == "inverse":
            times, out = self.inverse.values, self.target_grid
        elif direction == "forward":
            times, out = self.forward.values, self.source_grid
        else:
            raise PreconditionError(f"direction must be 'forward' or 'inverse', got {direction!r}")
        lo, hi = grid.nodes[0], grid.nodes[-1]
        bad = ~((times >= lo - _SLACK) & (times <= hi + _SLACK))  # NaN is bad too
        if bad.any():
            j = int(np.argmax(bad))
            raise StructuralError(
                f"grid [{lo}, {hi}] does not cover the clock range: node t={out.nodes[j]} "
                f"maps to {times[j]}"
            )
        return times, out

    def density_at(self, t):
        return self.density.at(t)

    def inverse_density_at(self, u) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
        """``(s, alpha_sq(s))`` with ``s = inverse(u)``: the one clock read of the transformed coefficients.

        The transformed coefficients are the base ones at ``s`` scaled by
        ``1 / alpha_sq(s)``.  Each read makes one interval search of the
        clock's node values and evaluates the closed form of the class
        docstring there, with ``alpha_sq(s) = a + b h``.  One time gives two
        Python floats, read without NumPy from ``_scalar_table``; an array
        of times gives two arrays of its shape, read by ``_invert_clock``.
        Both do the same arithmetic, so their bits agree, and both raise
        ``SampledPath.at``'s ``DomainError`` for the clock range
        ``[0, phi(T)]``, up to ``1e-12`` past either end.
        """
        if isinstance(u, np.ndarray) and u.ndim:
            nodes, phi = self.source_grid.nodes, self.forward.values
            u = np.asarray(u, dtype=float)
            _check_times(u, phi[0], phi[-1])
            return _invert_clock(nodes, phi, self.density.values, u)
        ts, ps, ds = self._scalar_table
        u = float(u)
        if not ps[0] - _SLACK <= u <= ps[-1] + _SLACK:
            if not math.isfinite(u):
                raise DomainError("evaluation at non-finite time")
            raise DomainError(f"evaluation outside grid range [{ps[0]}, {ps[-1]}]")
        k = bisect_right(ps, u)  # how many clock nodes lie at or below u
        if not k:  # inside the slack below the clock
            return ts[0], ds[0]
        if k == len(ps):
            return ts[-1], ds[-1]
        t0, a = ts[k - 1], ds[k - 1]
        b = (ds[k] - a) / (ts[k] - t0)
        r = u - ps[k - 1]
        h = 2.0 * r / (a + math.sqrt(a * a + 2.0 * b * r))
        return t0 + h, a + b * h

    @classmethod
    def identity(cls, grid: TimeGrid) -> "TimeChangeMap":
        return cls(
            forward=IncreasingProcess.identity(grid),
            inverse=SampledPath(grid, grid.nodes.copy(), LINEAR),
            density=SampledPath(grid, np.ones(grid.n_nodes), LINEAR),
        )


@dataclass(frozen=True)
class _SampledMap(TimeChangeMap):
    """A map known by its samples alone: every read interpolates them linearly.

    ``normalize_terminal_time`` returns one.  Its forward values are samples
    of ``t / (1 + t)``, not the integral of its density, so the closed form
    of :class:`TimeChangeMap` does not describe it.  Its inverse is read off
    the samples of ``t / (1 - t)`` on the target grid instead.
    """

    def forward_at(self, t):
        return self.forward.at(t)

    def inverse_at(self, u):
        return self.inverse.at(u)

    def derivative_at(self, u):
        return 1.0 / self.density.at(self.inverse.at(u))

    def inverse_density_at(self, u):
        s = self.inverse.at(u)
        return s, self.density.at(s)


@dataclass(frozen=True)
class CoefficientProcesses:
    """Lipschitz/monotonicity coefficient processes and the clock density built from them.

    ``alpha_sq`` dominates ``r`` and ``u**2`` (or ``max(-r, 0)``, ``l`` and
    ``u**2`` in monotone mode) and never falls below the declared floor
    ``eps``, positive and finite, so the clock built from it is strictly increasing.
    """

    r: SampledPath
    u: SampledPath
    alpha_sq: SampledPath
    eps: float
    mode: str = "lipschitz"  # "lipschitz" or "monotone"
    l: SampledPath | None = None

    def __post_init__(self):
        check_positive("eps floor", self.eps, error=InvariantError)
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
    """Running integral of ``h`` against ``dv`` at the grid nodes, by trapezoid sums.

    ``h`` and ``v`` must share a grid.  Both are linear between nodes, so
    on each step the integral is ``dv`` times the mean of ``h`` at its ends,
    and the node values are exact up to rounding.  The output is
    non-decreasing whenever ``h >= 0``.
    """
    if not h.grid.same_as(v.grid):
        raise StructuralError("integrand and integrator live on different grids")
    if not h.is_scalar:
        raise StructuralError("integrand must be scalar per node")
    dv = np.diff(v.values)
    if np.any(dv < 0):
        raise InvariantError("integrator is decreasing")
    out = np.concatenate([[0.0], np.cumsum(0.5 * (h.values[:-1] + h.values[1:]) * dv)])
    return SampledPath(h.grid, out, LINEAR)


def _integral_at(integral: SampledPath, h: SampledPath, x: SampledPath, t) -> np.ndarray:
    # Continuous extension of a left-point sum: finished intervals plus
    # h(left node) * (X(t) - X(left node)) on the straddled one.  Exact for
    # h == const.
    nodes = integral.grid.nodes
    t = np.asarray(t, dtype=float)
    idx = np.clip(np.searchsorted(nodes, t, side="right") - 1, 0, nodes.size - 1)
    base = integral.values[idx]
    return base + h.values[idx] * (x.at(t) - x.values[idx])


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

    The clock integrates against ``dt``: ``v`` must be the identity on the
    density's grid, as every build in the package passes it.  The density
    must stay at or above ``eps > 0``, so the clock is strictly increasing.
    The clock's node values are the trapezoid sums of
    :func:`integrate_stieltjes`, exact for a density linear between nodes.
    The map keeps ``alpha_sq`` as its density and reads the clock and its
    inverse in closed form between nodes (see :class:`TimeChangeMap`).  The
    inverse's values at the target nodes come from the same read; a target
    node past the clock's top holds ``+inf``.
    """
    if not alpha_sq.grid.same_as(v.grid):
        raise StructuralError("density and integrator live on different grids")
    if not np.array_equal(v.values, v.grid.nodes):
        raise PreconditionError("the clock integrates against dt: the integrator must be the identity")
    eps = check_positive("eps floor", eps, error=InvariantError)
    a2 = alpha_sq.values
    if np.any(a2 < eps * (1.0 - 1e-12)):
        raise InvariantError("clock density falls below the declared eps floor")
    phi_path = integrate_stieltjes(alpha_sq, v)
    forward = IncreasingProcess(phi_path, eps=eps)
    phi = phi_path.values
    if target is None:
        target = TimeGrid.uniform(float(phi[-1]), v.grid.n_nodes)
    elif target == "image":
        target = TimeGrid(phi.copy())
    levels = target.nodes
    inverse = np.full(levels.size, math.inf)
    reached = levels <= phi[-1] + _SLACK
    inverse[reached] = _invert_clock(v.grid.nodes, phi, a2, levels[reached])[0]
    return TimeChangeMap(forward=forward, inverse=SampledPath(target, inverse, LINEAR), density=alpha_sq)


def time_change_path(X: SampledPath, C: TimeChangeMap, direction: str) -> SampledPath:
    """Compose a path with the clock: ``X_tilde(t) = X(C(t))``.

    ``direction="inverse"`` reads the time change off ``C.inverse`` (the usual
    substitution), ``direction="forward"`` off the clock itself (undoing it).
    The times and the output grid come from ``C.crossing``, which checks that
    ``X``'s grid covers them.
    """
    times, grid = C.crossing(direction, X.grid)
    return SampledPath(grid, X.at(times))


def substitution_check(h: SampledPath, X: SampledPath, C: TimeChangeMap) -> float:
    """Discretization residual of the integral substitution identity.

    Returns ``max_t | int_0^{C(t)} h dX  -  int_0^t h_tilde dX_tilde |`` over
    the target grid, where ``h_tilde = h o C`` and ``X_tilde = X o C``.  The
    continuous-time identity makes the true value 0; the return is pure
    quadrature error and contracts under grid refinement for smooth inputs.
    The clock's inverse is read through ``C.crossing``, which checks that the
    integrand's grid covers it.
    """
    if not h.grid.same_as(X.grid):
        raise StructuralError("integrand and integrator live on different grids")
    # X only needs finite variation, so the running sum is taken directly.
    lhs_vals = np.concatenate([[0.0], np.cumsum(h.values[:-1] * np.diff(X.values))])
    lhs_running = SampledPath(h.grid, lhs_vals, LINEAR)
    times, _ = C.crossing("inverse", h.grid)
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
    between source nodes).  Its forward values are not the integral of that
    density, so every read of the map interpolates its samples
    (``_SampledMap``).  A degenerate ``tau = 0`` yields a zero transformed horizon; the
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
    return _SampledMap(
        forward=forward,
        inverse=SampledPath(tgt, inv_vals, LINEAR),
        density=SampledPath(src, (1.0 + src.nodes) ** -2, LINEAR),
    )
