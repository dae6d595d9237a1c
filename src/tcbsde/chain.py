"""Markov-chain backward SDEs, their balance structure and time-change transforms.

The chain lives on unit vectors of R^N with rate matrix ``A_t`` whose columns
sum to zero (column j holds the rates out of state j); its compensated
indicator process

    M_t = X_t - X_0 - int_0^t A_u X_{u-} du

is the driving martingale, with predictable bracket density

    psi = diag(A X) - A diag(X) - diag(X) A^T    (symmetric PSD),

so z-vectors are only meaningful up to constant shifts (the all-ones vector is
a null direction).  A driver is gamma-balanced when its z-differences factor
through a compensator perturbation ``eta`` with componentwise ratios against
``A X`` inside ``[gamma, 1/gamma]`` (0/0 reads as 1), the sum of ``eta``
vanishing, and invariance under ``z -> z + c 1``.

A y-coefficient process ``C(t)`` is tamed by the clock with density
``max(C(t), C2, 1)``: rates rescale as ``A~(u) = A(inv(u)) inv'(u)`` (never
faster than the original, since the density stays at or above 1), drivers and
perturbations pick up the same ``inv'`` factor, and gamma-balance survives
because the ratios are scale-invariant.  Clocks here are deterministic; for
state-dependent coefficients the dominating envelope ``max_x C(t, x)`` is
used.

Solvers: a backward ODE system on the state values for Markovian problems
(the Dormand-Prince 5(4) stepper of ``_rk45``, bit-equal to SciPy's
``solve_ivp(method="RK45")``; truncation tail reported), and a per-step
fixed-point scheme on simulated paths with state-indicator conditional
expectations and Z regressed from Y-jumps against M-jumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ._rk45 import rk45
from .errors import (
    ConfigError,
    DomainError,
    InvariantError,
    PreconditionError,
    SchemeError,
    StructuralError,
    UnsupportedError,
    check_count,
    check_positive,
)
from .timechange import (
    LINEAR,
    IncreasingProcess,
    SampledPath,
    TimeChangeMap,
    TimeGrid,
    build_clock_from_density,
    interp_columns,
)

# Rates and loss rates take one time or a 1-d array of m times (with states
# of the same shape).  Given an array, a rate function returns (m, N, N), or
# (N, N) for a matrix that does not depend on time, and a loss rate returns
# (m,) or a scalar.  At m = N an (m, N) return or a bare ``A * (1 + t)`` is
# (N, N) too, so there an (N, N) return must equal the matrix of the first
# time alone, at one more call; a time factor needs two trailing axes.
RateFn = Callable[[float | np.ndarray], np.ndarray]
LossFn = Callable[[float | np.ndarray, int | np.ndarray], float | np.ndarray]
ChainDriver = Callable[[float, int, float, np.ndarray], float]
EtaFn = Callable[[float, int, np.ndarray, np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# model and paths
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class MarkovChainModel:
    """Finite-state chain: rate function, initial state, declared rate bound."""

    n_states: int
    rate_fn: RateFn
    initial: int
    rate_bound: float

    def __post_init__(self):
        if not 0 <= self.initial < self.n_states:
            raise ConfigError(f"initial state {self.initial} is not among states 0..{self.n_states - 1}")

    def rates(self, t) -> np.ndarray:
        """Rate matrix at time ``t``; a 1-d array of m times gives a stack ``(m, N, N)``.

        A stack calls ``rate_fn`` once, with the float64 array of times.  A
        return of ``(N, N)`` is a matrix that does not depend on time: it is
        copied and given back as a read-only broadcast over the m times.  At
        m = N, where other returns are ``(N, N)`` as well, it must equal the
        return of a second call at the first time alone.
        """
        if isinstance(t, np.ndarray) and t.ndim:
            return self._rates_at_times(t)
        A = np.asarray(self.rate_fn(t), dtype=float)
        if A.shape != (self.n_states, self.n_states):
            raise StructuralError("rate matrix has a wrong shape")
        return A

    def _rates_at_times(self, t: np.ndarray) -> np.ndarray:
        N = self.n_states
        if not t.size:
            return np.empty((0, N, N))
        t = np.asarray(t, dtype=float)
        try:
            # a callback written for one time mostly fails on an array, here
            # or at the shape tests below
            A = np.asarray(self.rate_fn(t), dtype=float)
            # at m = N an (m, N) return, or a bare A * (1 + t), is (N, N) as
            # well: the matrix must then be the one the first time alone gives
            if A.shape == (N, N) and t.size == N:
                first = np.asarray(self.rate_fn(float(t[0])), dtype=float)
                if not np.array_equal(first, A, equal_nan=True):
                    raise StructuralError("rate matrix has a wrong shape")
        except ValueError as exc:
            raise StructuralError("rate matrix has a wrong shape") from exc
        if A.shape == (N, N):
            return np.broadcast_to(A.copy(), (t.size, N, N))
        if A.shape != (t.size, N, N):
            raise StructuralError("rate matrix has a wrong shape")
        return A

    def validate(self, times) -> None:
        t = np.atleast_1d(np.asarray(times, dtype=float))
        A = self.rates(t)
        _check_rate_batch(A, t, np.max(-np.diagonal(A, axis1=1, axis2=2), axis=1), self.rate_bound)


@dataclass(frozen=True)
class ChainPath:
    """Jump times and visited states of one realization."""

    jump_times: np.ndarray
    states: np.ndarray  # len(jump_times) + 1 entries

    def __post_init__(self):
        jt = np.asarray(self.jump_times, dtype=float)
        st = np.asarray(self.states, dtype=int)
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "states", st)
        if st.size != jt.size + 1:
            raise InvariantError("need one more state than jump times")
        if (jt[1:] <= jt[:-1]).any():
            raise InvariantError("jump times must be strictly increasing")
        if (st[1:] == st[:-1]).any():
            raise InvariantError("consecutive states must differ")

    def state_at(self, t) -> np.ndarray:
        """Cadlag state index at time(s) t; a NaN time raises :class:`PreconditionError`."""
        t = np.asarray(t, dtype=float)
        if np.isnan(t).any():  # it would sort past every jump and read the last state
            raise PreconditionError("state_at needs times that are not NaN")
        return self.states[np.searchsorted(self.jump_times, t, side="right")]


@dataclass(frozen=True, eq=False)
class ChainPaths:
    """Jumps of a batch of simulated paths, sorted by path and, within a path, by time.

    ``len(paths)`` is the number of paths; ``paths[k]`` and iteration give
    one path as a :class:`ChainPath`.
    """

    initial: np.ndarray  # (paths,) starting state of each path
    path: np.ndarray  # path index of each jump
    time: np.ndarray
    state: np.ndarray  # state entered at each jump

    def __post_init__(self):
        for name, dtype in (("initial", int), ("path", int), ("time", float), ("state", int)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        path, time = self.path, self.time
        if self.initial.ndim != 1 or path.ndim != 1 or not path.shape == time.shape == self.state.shape:
            raise InvariantError("need one start state per path and one index, time and state per jump")
        if path.size and (path[0] < 0 or path[-1] >= self.initial.size):
            raise InvariantError("jump path index out of range")
        if (path[1:] < path[:-1]).any():
            raise InvariantError("jumps must be sorted by path index")
        if ((time[1:] <= time[:-1]) & (path[1:] == path[:-1])).any():
            raise InvariantError("jump times must be strictly increasing within a path")
        if (self.state == self._state_before()).any():
            raise InvariantError("a jump must enter a state other than the one it leaves")

    def _state_before(self) -> np.ndarray:
        """The state each jump leaves."""
        first = np.ones(self.path.size, dtype=bool)
        first[1:] = self.path[1:] != self.path[:-1]
        return np.where(first, self.initial[self.path], np.roll(self.state, 1))

    def __len__(self) -> int:
        return self.initial.size

    def __getitem__(self, k: int) -> ChainPath:
        k = range(len(self))[k]
        a, b = np.searchsorted(self.path, [k, k + 1])
        return ChainPath(self.time[a:b], np.concatenate(([self.initial[k]], self.state[a:b])))

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    def states_at(self, times) -> np.ndarray:
        """State of every path at each of the non-decreasing, non-NaN ``times``, shape ``(paths, len(times))``.

        Each jump adds its state change at the first time at or after it, and
        one in-place cumulative sum along the times fills the only array as
        large as the output.  That array is a ``(times, paths)`` buffer, so
        the sum and each time's states are contiguous rows; the result is its
        transpose, with the values the path-by-path ``state_at`` gives.
        """
        times = np.asarray(times, dtype=float)
        # a NaN passes the order test and would read every path after its last jump
        if times.ndim != 1 or np.isnan(times).any() or (times[1:] < times[:-1]).any():
            raise PreconditionError("times must be a 1-d non-decreasing array without NaN")
        out = np.zeros((times.size, len(self)), dtype=int)
        out[:1] = self.initial
        row = np.searchsorted(times, self.time, side="left")
        seen = row < times.size
        np.add.at(out, (row[seen], self.path[seen]), (self.state - self._state_before())[seen])
        np.cumsum(out, axis=0, out=out)
        return out.T


def _column_sums(A: np.ndarray) -> np.ndarray:
    """``A.sum(axis=1)`` of a stack ``(m, N, N)``, bit for bit, by N row adds.

    NumPy sums a non-inner axis by adding its rows in order to a zero, so the
    row adds give the same bits (down to the sign of a zero sum) at a
    fraction of the cost of the middle-axis reduction.
    """
    out = A[:, 0] + 0.0
    for r in range(1, A.shape[1]):
        out += A[:, r]
    return out


def _check_generator(A: np.ndarray, t: np.ndarray):
    """Generator invariants on a stack of rate matrices at the times ``t``.

    The rates are finite, no off-diagonal rate is negative and every column
    sums to zero.  Each test runs on the whole batch; only a failure searches
    for the first matrix that fails it.  A stack that repeats one matrix
    (stride 0 on its first axis, as ``MarkovChainModel.rates`` broadcasts a
    time-constant matrix) is checked as that one matrix: its first failure is
    at ``t[0]``, as it would be in the full stack.
    """
    if A.strides[0] == 0:
        A = A[:1]
    m, N = A.shape[:2]
    # every comparison below is false for NaN, so non-finite rates go first
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
    unbalanced = np.abs(_column_sums(A)) > 1e-9
    if unbalanced.any():
        k = np.argmax(unbalanced.any(axis=1))
        raise InvariantError(f"columns do not sum to zero at t={t[k]}")


def _check_rate_batch(A: np.ndarray, t: np.ndarray, total: np.ndarray, bound: float):
    """``_check_generator`` on ``A``, then the thinning bound on all of ``total``."""
    _check_generator(A, t)
    bad = np.flatnonzero(total > bound * (1.0 + 1e-9))
    if bad.size:
        k = bad[0]
        raise InvariantError(
            f"exit plus kill rate {total[k]} exceeds the thinning bound {bound} at t={t[k]}"
        )


def _loss_at(loss_rate: LossFn, t: np.ndarray, states: np.ndarray) -> np.ndarray:
    """``loss_rate`` at m times and states, in one call; a scalar return broadcasts to ``(m,)``."""
    try:
        kill = np.asarray(loss_rate(t, states), dtype=float)
    except ValueError as exc:
        raise StructuralError("loss rate has a wrong shape") from exc
    if kill.shape not in ((), t.shape):
        raise StructuralError("loss rate has a wrong shape")
    return np.broadcast_to(kill, t.shape)


def _thin(
    model: MarkovChainModel,
    horizon: float,
    paths: int,
    seed: int,
    *,
    loss_rate: LossFn | None = None,
    loss_bound: float = 0.0,
    target: int | None = None,
) -> tuple[ChainPaths, np.ndarray, np.ndarray]:
    """Lewis-Shedler thinning of all paths at once against ``rate_bound + loss_bound``.

    Each round draws one exponential candidate time per live path, evaluates
    the rates, and the loss rates at the paths' states, of the whole batch in
    one call each, and accepts a jump with
    probability ``exit / bound`` and, given a loss rate, a kill with
    probability ``kill / bound``.  A time-constant rate matrix, which
    ``model.rates`` gives as one matrix broadcast over the batch, is read
    and checked once per round: the rates out of each path's state are rows
    of its transpose.  The next state is the first index whose
    cumulative off-diagonal rate out of the current state reaches a uniform
    draw on ``(0, exit]``.  A path leaves the batch at the horizon, when it
    is killed, or on entering ``target``.  Returns the jump log and the
    masks of the paths that reached the target and that were killed.  The
    horizon and the bound are positive and finite, the seed an integer >= 0.
    """
    check_count("path count", paths)
    check_positive("horizon", horizon)
    bound = check_positive("rate bound", model.rate_bound + loss_bound)
    rng = np.random.default_rng(check_count("seed", seed, least=0))
    initial = np.full(paths, int(model.initial))
    t = np.zeros(paths)
    state = initial.copy()
    reached = np.zeros(paths, dtype=bool) if target is None else state == target
    killed = np.zeros(paths, dtype=bool)
    live = np.flatnonzero(~reached)
    log_path, log_time, log_state = [], [], []
    while live.size:
        t_live = t[live] + rng.exponential(1.0 / bound, live.size)
        inside = t_live < horizon
        live, t_live = live[inside], t_live[inside]
        if not live.size:
            break
        t[live] = t_live
        s = state[live]
        rows = np.arange(live.size)
        A = model.rates(t_live)
        # column s of each matrix: the rates out of the current state; a
        # time-constant matrix is one matrix repeated, read once
        out_rates = A[0].T[s] if A.strides[0] == 0 else A[rows, :, s]
        exit_rate = -out_rates[rows, s]
        if loss_rate is None:
            total = exit_rate
        else:
            kill = _loss_at(loss_rate, t_live, s)
            # every comparison with NaN is false, so the bound check passes it
            bad = np.flatnonzero(~(kill >= 0.0))
            if bad.size:
                k = bad[0]
                raise InvariantError(f"loss rate {kill[k]} is negative or NaN at t={t_live[k]}")
            total = exit_rate + kill
        _check_rate_batch(A, t_live, total, bound)
        u = rng.uniform(size=live.size) * bound
        jump = u < exit_rate
        killed[live[~jump & (u < total)]] = True
        if np.any(jump):
            out_rates = out_rates[jump]
            out_rates[np.arange(out_rates.shape[0]), s[jump]] = 0.0
            cdf = np.cumsum(out_rates, axis=1)
            r = (1.0 - rng.uniform(size=cdf.shape[0])) * cdf[:, -1]
            nxt = np.sum(cdf < r[:, None], axis=1)  # searchsorted(cdf, r, side="left") per row
            who = live[jump]
            state[who] = nxt
            log_path.append(who)
            log_time.append(t_live[jump])
            log_state.append(nxt)
            if target is not None:
                reached[who[nxt == target]] = True
        live = live[~(reached[live] | killed[live])]
    if log_path:
        path, time, st = (np.concatenate(x) for x in (log_path, log_time, log_state))
        order = np.argsort(path, kind="stable")  # rounds run forward in time
        path, time, st = path[order], time[order], st[order]
    else:
        path, time, st = np.zeros(0, dtype=int), np.zeros(0), np.zeros(0, dtype=int)
    return ChainPaths(initial, path, time, st), reached, killed


def simulate_chain(model: MarkovChainModel, horizon: float, paths: int, seed: int) -> ChainPaths:
    """Exact jump simulation with thinning against the declared rate bound."""
    return _thin(model, horizon, paths, seed)[0]


def occupancy(paths: ChainPaths, t: float, n_states: int) -> np.ndarray:
    """Empirical state distribution at time t."""
    states = paths.states_at([float(t)])[:, 0]
    return np.bincount(states, minlength=n_states) / len(paths)


# ---------------------------------------------------------------------------
# bracket structure
# ---------------------------------------------------------------------------


def psi_matrix(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Bracket density ``diag(Ax) - A diag(x) - diag(x) A^T``; symmetric PSD."""
    x = np.asarray(x, dtype=float)
    A = np.asarray(A, dtype=float)
    if not (np.sum(x == 1.0) == 1 and np.sum(x == 0.0) == x.size - 1):
        raise PreconditionError("x must be a unit coordinate vector")
    if np.max(np.abs(A.sum(axis=0))) > 1e-9:
        raise PreconditionError("rate matrix columns must sum to zero")
    C = A * x[None, :]
    return np.diag(A @ x) - C - C.T


# ---------------------------------------------------------------------------
# balanced drivers
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class GammaBalancedDriver:
    """Driver with compensator-perturbation structure in z and a y-coefficient path.

    ``f(t, state_index, y, z)`` is scalar; ``eta(t, state_index, z, z')``
    returns the perturbed compensator in R^N (the state argument carries the
    omega-dependence of the random field).  ``c_path`` is the y-coefficient
    process C(t); ``k1``/``k2`` are the non-decreasing control functions, and
    the remaining constants bound discounting (``c1``), driver growth
    (``c2``, ``beta_hat``) and the terminal-time moments (``beta``,
    ``beta_tilde``).
    """

    f: ChainDriver
    eta: EtaFn
    gamma: float
    c_path: SampledPath
    c1: float
    c2: float
    beta_hat: float
    beta: float
    beta_tilde: float
    k1: Callable[[float], float]
    k2: Callable[[float], float]

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise InvariantError("gamma must lie in (0, 1]")


@dataclass(eq=False)
class ChainBSDEProblem:
    model: MarkovChainModel
    driver: GammaBalancedDriver
    hitting_set: frozenset
    terminal_fn: Callable[[float, int], float]  # g(t, state_index)
    markovian: bool = True

    def __post_init__(self):
        if not self.hitting_set:
            raise InvariantError("hitting set must be non-empty")
        if any(s < 0 or s >= self.model.n_states for s in self.hitting_set):
            raise ConfigError("hitting set names unknown states")


@dataclass(frozen=True)
class BalanceReport:
    worst_difference_identity: float
    worst_ratio_deviation: float
    worst_sum: float
    worst_shift_invariance: float
    passed: bool


# y, z, z' and the shift of z are probed uniformly on [-box, box]
_BALANCE_PROBE_BOX = 2.0


def check_gamma_balanced(
    driver: GammaBalancedDriver,
    model: MarkovChainModel,
    probes: int,
    *,
    t_max: float = 5.0,
    seed: int = 0,
    tol: float = 1e-9,
) -> BalanceReport:
    """Probe the four balance requirements; report the worst violation of each.

    Each probe draws t on ``[0, t_max]`` (``t_max`` positive and finite),
    the state, then y, z, z' and the shift in one uniform draw, and calls
    ``eta``, ``f`` twice and the shifted ``eta``.  The rates at every probe's time
    are then read in one call, and each probe takes its state's column.
    The worst values are reductions over the stacked probes, so a NaN
    anywhere gives a NaN field and fails the check.
    """
    check_count("probe count", probes)
    check_positive("t_max", t_max)
    rng = np.random.default_rng(check_count("seed", seed, least=0))
    N = model.n_states
    box = _BALANCE_PROBE_BOX
    gamma = driver.gamma
    ts, xs, lhss, dzs, etas, shifted = [], [], [], [], [], []
    for _ in range(probes):
        t = float(rng.uniform(0.0, t_max))
        x = int(rng.integers(0, N))
        v = rng.uniform(-box, box, size=2 * N + 2)
        y, z, zp, alpha = float(v[0]), v[1 : N + 1], v[N + 1 : 2 * N + 1], float(v[-1])
        ts.append(t)
        xs.append(x)
        etas.append(np.asarray(driver.eta(t, x, z, zp), dtype=float))
        lhss.append(driver.f(t, x, y, z) - driver.f(t, x, y, zp))
        dzs.append(z - zp)
        shifted.append(driver.eta(t, x, z + alpha, zp))
    ax = model.rates(np.array(ts))[np.arange(probes), :, xs]
    gaps = [lhs - float(dz @ (e - a)) for lhs, dz, e, a in zip(lhss, dzs, etas, ax)]
    eta = np.array(etas, dtype=float)
    shifted = np.array(shifted, dtype=float)
    # a ratio off [gamma, 1/gamma] counts by its distance; against a zero
    # compensator the perturbation itself is the violation (0/0 reads as 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = eta / ax
    off = np.maximum(np.maximum(gamma - ratio, ratio - 1.0 / gamma), 0.0)
    off = np.where(ax == 0.0, np.abs(eta), off)
    worst = (
        float(np.max(np.abs(np.array(gaps, dtype=float)))),
        float(np.max(off)),
        float(np.max(np.abs(np.sum(eta, axis=1)))),
        float(np.max(np.abs(shifted - eta))),
    )
    passed = bool(np.max(worst) <= tol)
    return BalanceReport(*worst, passed)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def chain_clock(
    c_path: SampledPath, c2: float, target: TimeGrid | str | None = None
) -> TimeChangeMap:
    """Clock with density ``max(C(t), C2, 1)`` on the y-coefficient's grid."""
    dens = np.maximum.reduce(
        [c_path.values, np.full(c_path.values.shape, max(c2, 0.0)), np.ones(c_path.values.shape)]
    )
    return build_clock_from_density(
        c_path.with_values(dens), IncreasingProcess.identity(c_path.grid), eps=1.0, target=target
    )


def _require_contracting_clock(clock: TimeChangeMap) -> None:
    if np.any(clock.density.values < 1.0 / (1.0 + 1e-9)):
        raise InvariantError(
            "clock density falls below 1 somewhere; chain transforms need alpha^2 >= 1"
        )


def transform_chain(model: MarkovChainModel, clock: TimeChangeMap) -> MarkovChainModel:
    """Rate matrix on the new time scale: ``A~(u) = A(inv(u)) inv'(u)``.

    A plain :class:`MarkovChainModel` whose ``rate_fn`` reads the clock once
    per call, through ``inverse_density_at``, for one time or an array, and
    scales ``model.rates(s)`` by ``1 / alpha^2(s)``; a copy made by
    ``dataclasses.replace`` keeps it.  The derivative
    ``inv'(u) = 1 / alpha^2(inv(u))`` never exceeds 1 here, so the
    transformed chain is never faster than the original and the declared
    bound carries over.
    """
    _require_contracting_clock(clock)
    read, base_rates = clock.inverse_density_at, model.rates

    def rate_fn(u):
        s, a2 = read(u)
        w = 1.0 / a2
        return base_rates(s) * (w if isinstance(w, float) else w[:, None, None])

    return MarkovChainModel(model.n_states, rate_fn, model.initial, model.rate_bound)


def transform_chain_driver(
    driver: GammaBalancedDriver, clock: TimeChangeMap
) -> GammaBalancedDriver:
    """Driver and perturbation on the new scale; balance survives with the same gamma.

    Both ``f`` and ``eta`` pick up the factor ``inv'(u)``, so the component
    ratios against the transformed compensator cancel exactly; the transformed
    y-coefficient is ``C(inv(u)) inv'(u) <= 1`` and the zero-argument growth
    constant drops to 1.  Each scalar callback reads the clock once, through
    ``inverse_density_at``.  The perturbation bound ``c_path`` is read at
    the clock's inverse through ``clock.crossing``, which checks that its
    grid covers the clock range.
    """
    _require_contracting_clock(clock)
    read = clock.inverse_density_at
    base_f, base_eta = driver.f, driver.eta

    def tilde_f(u, x, y, z):
        s, a2 = read(u)
        return base_f(s, x, y, z) * (1.0 / a2)

    def tilde_eta(u, x, z, zp):
        s, a2 = read(u)
        return np.asarray(base_eta(s, x, z, zp), dtype=float) * (1.0 / a2)

    s_nodes, tgt = clock.crossing("inverse", driver.c_path.grid)
    c_vals = np.asarray(driver.c_path.at(s_nodes)) * (1.0 / np.asarray(clock.density_at(s_nodes)))
    base_k1, base_k2 = driver.k1, driver.k2
    return GammaBalancedDriver(
        f=tilde_f,
        eta=tilde_eta,
        gamma=driver.gamma,
        c_path=SampledPath(tgt, np.minimum(c_vals, 1.0), LINEAR),
        c1=driver.c1,
        c2=min(driver.c2, 1.0),
        beta_hat=driver.beta_hat,
        beta=driver.beta,
        beta_tilde=driver.beta_tilde,
        k1=lambda t: base_k1(read(t)[0]),
        k2=lambda t: base_k2(read(t)[0]),
    )


@dataclass(eq=False)
class _ClockedChainProblem(ChainBSDEProblem):
    """A problem read through a clock: the base problem at ``s = inv(u)``.

    ``model``, ``driver`` and ``terminal_fn`` are the clocked views of the
    base's, for the callers that take one callback at a time; the backward
    ODE reads ``base`` and ``clock`` itself, once per right-hand side.  The
    views are derived, not init arguments, so a copy made by
    ``dataclasses.replace`` can change ``base`` or ``clock`` and the views
    follow.
    """

    base: ChainBSDEProblem
    clock: TimeChangeMap
    model: MarkovChainModel = field(init=False, repr=False)
    driver: GammaBalancedDriver = field(init=False, repr=False)
    hitting_set: frozenset = field(init=False, repr=False)
    terminal_fn: Callable[[float, int], float] = field(init=False, repr=False)
    markovian: bool = field(init=False, repr=False)

    def __post_init__(self):
        base, read = self.base, self.clock.inverse_density_at
        base_g = base.terminal_fn
        self.model = transform_chain(base.model, self.clock)
        self.driver = transform_chain_driver(base.driver, self.clock)
        self.hitting_set = base.hitting_set
        self.terminal_fn = lambda t, i: base_g(read(t)[0], i)
        self.markovian = base.markovian


def transform_chain_problem(problem: ChainBSDEProblem, clock: TimeChangeMap) -> ChainBSDEProblem:
    """Model, driver and terminal on the new scale, all read at ``s = inv(u)``."""
    return _ClockedChainProblem(base=problem, clock=clock)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ChainSolution:
    """State-value representation of a chain solution, optional path ensemble.

    ``state_values[j, i]`` is Y at node j in state i.  A ``picard`` solve,
    which runs on simulated paths, also carries the per-path view in
    ``path_states``/``path_Y``/``stop_idx``; a ``markov-ode`` solve and a
    mapped solution leave them ``None``.
    """

    grid: TimeGrid
    state_values: np.ndarray  # (n_nodes, N)
    scheme: str
    metadata: dict = field(default_factory=dict)
    path_states: np.ndarray | None = None
    path_Y: np.ndarray | None = None
    stop_idx: np.ndarray | None = None

    def value_at(self, t: float, state: int) -> float:
        """Linear interpolation in time; ``t`` in the grid range up to 1e-12, ``state`` a state index."""
        lo, hi = float(self.grid.nodes[0]), self.grid.t_end
        if not math.isfinite(t) or t < lo - 1e-12 or t > hi + 1e-12:
            raise DomainError(f"value_at({t}) outside solution grid range [{lo}, {hi}]")
        N = self.state_values.shape[1]
        if check_count("value_at state", state, least=0, error=DomainError) >= N:
            raise DomainError(f"value_at state {state} outside the states 0..{N - 1}")
        col = self.state_values[:, state]
        return float(np.interp(t, self.grid.nodes, col))


# the backward ODE's relative and absolute step tolerances
_ODE_RTOL, _ODE_ATOL = 1e-8, 1e-10


def _ode_solve(problem: ChainBSDEProblem, grid: TimeGrid):
    """Value function on ``grid`` and the no-hit tail probability, in one integration.

    The state is ``[u_free, q_free]``: ``u`` is the value off the hitting set,
    ``q`` the probability of no hit by the horizon (terminal 1 off the set,
    0 on it, no driver term).  Both share one generator product per call.

    A clocked problem is solved as its base problem at ``s = inv(t)``, with
    rates and driver scaled by ``w = 1 / alpha^2(s)``: each distinct time
    makes one scalar clock read (``inverse_density_at``) for the rates, the
    driver and the terminal alike (a step's last stage and closing call
    share ``t + h``).  The hitting set's terminal values at the output
    nodes take one array read of the nodes, bit-equal to the scalar reads.
    An unclocked problem is its own base, with ``s = t``
    and ``w = 1``.  A base generator given as a stride-0 stack (constant in
    time) at the base times of 0 and the horizon is read once per solve.
    The free states fill the state-by-column buffer in one assignment, and
    the output is one copy of the generator product's free rows, plus the
    driver terms, whose ``y`` is the Python float of the state's entry of ``x``.

    The integrator is ``_rk45.rk45``, the Dormand-Prince 5(4) stepper of
    ``scipy.integrate.solve_ivp(method="RK45")`` repeated bit for bit.  Also
    returns the number of right-hand-side evaluations and the numbers of
    accepted and rejected steps.
    """
    clocked = isinstance(problem, _ClockedChainProblem)
    if clocked:
        base, read = problem.base, problem.clock.inverse_density_at
    else:
        base, read = problem, lambda t: (float(t), 1.0)
    N = base.model.n_states
    hit = sorted(base.hitting_set)
    free = np.array([i for i in range(N) if i not in base.hitting_set], dtype=int)
    if not free.size:
        raise PreconditionError("every state is terminal; nothing to solve")
    n_free, free_list = free.size, free.tolist()
    # the free rows: a basic slice, cheaper than an index array, when they are one run
    one_run = free_list[-1] - free_list[0] + 1 == n_free
    rows = slice(free_list[0], free_list[-1] + 1) if one_run else free
    rates, f, g = base.model.rates, base.driver.f, base.terminal_fn
    T = grid.t_end
    # the base reads a time-constant matrix once: a stride-0 stack at two of its times
    s_0, s_T = read(0.0)[0], read(T)[0]
    A = rates(s_0) if rates(np.array([s_0, s_T])).strides[0] == 0 else None

    U = np.zeros((N, 2))  # columns u and q; C order fixes how the product below sums
    last_r = s = w = AwT = None  # the last read, kept for a call at the same r

    def rhs(r, x):
        nonlocal last_r, s, w, AwT
        if r != last_r:
            s, a2 = read(T - r)
            w = 1.0 / a2
            AwT = ((rates(s) if A is None else A) * w).T
            for i in hit:
                U[i, 0] = g(s, i)
            last_r = r
        U[rows] = x.reshape(2, n_free).T
        u = U[:, 0].copy()
        # fresh on every call, as the integrator keeps the last one it got
        out = AwT.dot(U)[rows].T.ravel()
        y = x.tolist()  # the free states' values, first in x
        for k, i in enumerate(free_list):
            out[k] += f(s, i, y[k], u) * w
        return out  # dx/dr = -dx/dt

    x0 = np.concatenate(([g(s_T, i) for i in free_list], np.ones(n_free)))
    r_eval = T - grid.nodes[::-1]
    try:
        y, nfev, steps, rejected = rk45(rhs, T, x0, r_eval, _ODE_RTOL, _ODE_ATOL)
    except SchemeError as exc:
        raise SchemeError(f"backward ODE integration failed: {exc}") from None
    values = np.empty((grid.n_nodes, N))
    values[:, free] = y[:n_free].T[::-1]  # on the forward grid
    # the base times of the nodes in one array read, with the scalar reads' bits
    s_nodes = read(grid.nodes)[0] if clocked else grid.nodes
    for j, s in enumerate(s_nodes.tolist()):
        for i in hit:
            values[j, i] = g(s, i)
    q = np.zeros(N)
    q[free] = y[n_free:, -1]
    return values, float(q[int(base.model.initial)]), nfev, steps, rejected


def solve_chain_bsde(
    problem: ChainBSDEProblem,
    scheme: str,
    grid: TimeGrid,
    paths: int | None = None,
    seed: int = 0,
) -> ChainSolution:
    """Backward solution on a truncated horizon with the hitting set as boundary.

    ``markov-ode``: value function from the backward ODE system, integrated
    to relative tolerance 1e-8 and absolute tolerance 1e-10; requires the
    Markovian flag and deterministic rates, and takes no path count: it
    simulates nothing and returns no per-path view.  It first checks the
    generator at the grid nodes, in one array read of ``problem.model.rates``
    (through the clock for a clocked problem): finite rates, no negative
    off-diagonal rate, zero column sums, as the simulators check theirs.
    The no-hit tail probability at the horizon is reported in the metadata.
    ``picard``: per-step fixed point to a residual of 1e-12 on
    ``paths`` simulated paths drawn from ``seed``, conditional expectations
    by state-indicator averaging, Z from least squares of Y-jumps on M-jumps
    (identified up to the bracket's null direction), which feeds the driver
    and is not kept.  Its backward pass is step-major: each step reads one
    contiguous row of the ``(nodes, paths)`` state and value arrays.
    """
    if scheme == "markov-ode":
        if not problem.markovian:
            raise UnsupportedError("markov-ode needs a Markovian driver")
        if paths is not None:
            raise PreconditionError("markov-ode simulates no paths; pass no path count")
        _check_generator(problem.model.rates(grid.nodes), grid.nodes)
        values, tail, nfev, steps, rejected = _ode_solve(problem, grid)
        return ChainSolution(
            grid=grid,
            state_values=values,
            scheme="markov-ode",
            metadata={
                "tail_probability": tail,
                "rhs_evaluations": nfev,
                "steps": steps,
                "rejected_steps": rejected,
            },
        )
    if scheme != "picard":
        raise PreconditionError(f"unknown scheme {scheme!r}")
    check_count("path count", paths)
    return _picard_solve(problem, grid, paths, seed)


def _stop_indices(ST: np.ndarray, hitting_set: frozenset) -> np.ndarray:
    """Per path, the first node in the hitting set, or the last node; ``ST`` is step-major."""
    hit = sorted(hitting_set)
    inset = ST == hit[0]
    for h in hit[1:]:
        inset |= ST == h
    idx = np.argmax(inset, axis=0)
    idx[~inset.any(axis=0)] = ST.shape[0] - 1
    return idx


# the fixed point's residual tolerance; it runs at least this many iterations
# before judging non-convergence, and no more than the ceiling however slowly
# the declared slope contracts
_FIXED_POINT_TOL = 1e-12
_FIXED_POINT_MIN_ITERATIONS = 100
_FIXED_POINT_MAX_ITERATIONS = 10_000


def _fixed_point_cap(slope: float, first_residual: float, tol: float) -> int:
    """Iterations after which a contraction of ``slope`` shrinks ``first_residual`` below ``tol``.

    The residual of iteration ``k + 1`` is at most ``slope^k`` times the
    first, so ``1 + log(tol / first_residual) / log(slope)`` iterations suffice.
    """
    if not (0.0 < slope < 1.0 and math.isfinite(first_residual) and first_residual > tol):
        return _FIXED_POINT_MIN_ITERATIONS
    need = 1 + math.ceil(math.log(tol / first_residual) / math.log(slope))
    return min(max(need, _FIXED_POINT_MIN_ITERATIONS), _FIXED_POINT_MAX_ITERATIONS)


def _picard_solve(problem, grid, paths, seed):
    """The ``picard`` scheme, step-major: each step reads contiguous rows.

    The grid states ``ST`` and the path values ``YT`` are ``(nodes, paths)``
    arrays, walked backward one row per step; ``path_states`` and ``path_Y``
    are their transposes.  Only the free states run the fixed point: no
    path still running sits in a hitting state, and the terminal gives its
    value.  Each step selects a state's running paths from one key, the
    state or -1 once stopped, and gathers their M-jumps from one ``(N, N)``
    table, with the elementwise operations of ``eye[k] - eye[i] - A[:, i] dt``.
    The fixed point steps on Python floats, and only the running paths'
    values are written: the stopped ones already hold ``xi``.
    """
    model = problem.model
    N = model.n_states
    n = grid.n_nodes
    dt = grid.steps
    c_max = float(np.max(problem.driver.c_path.values))
    if np.any(dt * max(c_max, 1e-12) >= 1.0):
        raise SchemeError("per-step contraction fails: dt * Lipschitz >= 1")
    log, _, _ = _thin(model, grid.t_end, paths, seed)
    S = log.states_at(grid.nodes)
    ST = S.T
    stop = _stop_indices(ST, problem.hitting_set)
    truncated = float(np.mean(stop == n - 1))
    g = problem.terminal_fn
    nodes = grid.nodes.tolist()
    stop_states = ST[stop, np.arange(paths)].tolist()
    xi = np.array([g(nodes[k], i) for k, i in zip(stop.tolist(), stop_states)])

    eye = np.eye(N)
    YT = np.where(np.arange(n)[:, None] >= stop[None, :], xi[None, :], 0.0)
    values = np.zeros((n, N))
    values[n - 1] = [g(grid.t_end, i) for i in range(N)]

    f = problem.driver.f
    hit = sorted(problem.hitting_set)
    free = [i for i in range(N) if i not in problem.hitting_set]
    steps = dt.tolist()
    for j in range(n - 2, -1, -1):
        t, dtj = nodes[j], steps[j]
        A = model.rates(t)
        active = stop > j
        Sj, S_next, y_next = ST[j], ST[j + 1], YT[j + 1]
        key = np.where(active, Sj, -1)  # the state of each running path, -1 once stopped
        for i in free:
            sel = np.flatnonzero(key == i)
            if not sel.size:
                values[j, i] = values[j + 1, i]
                continue
            ys = y_next[sel]
            cond = float(ys.sum() / sel.size)  # np.mean's sum and division
            # Z from regressing Y-jumps on M-jumps; bracket-null directions
            # remain free, reporting uses the semi-norm.  Row k of the table
            # is the M-jump of a step from i to k
            dM = ((eye - eye[i]) - A[:, i] * dtj)[S_next[sel]]
            dY = ys - cond
            z, *_ = np.linalg.lstsq(dM, dY, rcond=None)
            y, cap = cond, _FIXED_POINT_MIN_ITERATIONS
            for k in range(1, _FIXED_POINT_MAX_ITERATIONS + 1):
                y_new = cond + f(t, i, y, z) * dtj
                residual = abs(y_new - y)
                y = y_new
                if residual <= _FIXED_POINT_TOL:
                    break
                if k == 1:
                    cap = _fixed_point_cap(dtj * c_max, residual, _FIXED_POINT_TOL)
                if k >= _FIXED_POINT_MIN_ITERATIONS:
                    # past |y| = 2**13 one rounding step exceeds the default
                    # absolute tolerance, so from here on judge the residual
                    # relative to |y|; a NaN residual fails the comparison
                    if residual <= _FIXED_POINT_TOL * max(1.0, abs(y)):
                        break
                    if k >= cap:
                        raise SchemeError(
                            f"fixed point at step {j} (t={t}), state {i} did not converge "
                            f"in {k} iterations: last residual {residual:.3g} at y={y:.6g}"
                        )
            values[j, i] = y
        for i in hit:
            values[j, i] = g(t, i)
        np.copyto(YT[j], values[j, Sj], where=active)  # stopped paths already hold xi

    return ChainSolution(
        grid=grid,
        state_values=values,
        scheme="picard",
        metadata={"truncated_fraction": truncated},
        path_states=S,
        path_Y=YT.T,
        stop_idx=stop,
    )


def map_chain_solution(sol: ChainSolution, clock: TimeChangeMap) -> ChainSolution:
    """Value function carried back to the original time scale: ``u(t) = u~(phi(t))``.

    The times ``phi`` and the source grid come from ``clock.crossing("forward")``,
    which checks that the solution grid covers them.
    """
    phi, src = clock.crossing("forward", sol.grid)
    return ChainSolution(
        grid=src,
        state_values=interp_columns(sol.grid.nodes, sol.state_values, phi),
        scheme=sol.scheme,
        metadata=dict(sol.metadata),
    )


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

# a-priori bound profiles, all multiples of exp(c1) K1(t):
#   growth-scaled: (1 + C2) e^{c1} K1   (uniform-Lipschitz-in-y setting)
#   doubled:       2 e^{c1} K1          (time-varying y-coefficient, tamed)
#   tight:         e^{c1} K1            (after growth normalization)
_BOUND_FACTORS = {
    "growth-scaled": lambda d: (1.0 + d.c2) * math.exp(d.c1),
    "doubled": lambda d: 2.0 * math.exp(d.c1),
    "tight": lambda d: math.exp(d.c1),
}


def verify_bound(
    sol: ChainSolution, driver: GammaBalancedDriver, variant: str, tol: float = 0.02
) -> tuple[float, bool]:
    """Sup of |Y| against the selected a-priori bound profile; report-only."""
    if variant not in _BOUND_FACTORS:
        raise PreconditionError(
            f"unknown bound variant {variant!r}; known: {sorted(_BOUND_FACTORS)}"
        )
    factor = _BOUND_FACTORS[variant](driver)
    bound = factor * np.array([abs(driver.k1(float(t))) for t in sol.grid.nodes])
    ratio = float(np.max(np.abs(sol.state_values) / bound[:, None]))
    return ratio, ratio <= 1.0 + tol


# ---------------------------------------------------------------------------
# message transmission
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class MessageReport:
    reach_probability: float
    values: ChainSolution  # on the original time scale
    mc_estimate: float
    mc_se: float
    mc_killed: float
    tail_probability: float
    horizon: float


def build_message_problem(
    model: MarkovChainModel,
    loss_rate: LossFn,
    target: int,
    horizon_grid: TimeGrid,
) -> ChainBSDEProblem:
    """Reach-probability equation: terminal indicator of the target, driver ``-r y``.

    The loss rate enters as a discount; the driver is z-free, so the
    compensator itself is an admissible perturbation and balance is exact
    with ratio 1.  The y-coefficient envelope is ``max_x r(t, x)``, read
    with one ``loss_rate`` call per state over all grid nodes; it must be
    non-negative, and a NaN in it fails that test too.  The driver calls
    ``loss_rate`` at one time and state.
    """
    if not (0 <= target < model.n_states):
        raise ConfigError("target state is not in the state space")
    N = model.n_states

    def f(t, i, y, z):
        return -loss_rate(t, i) * y

    def eta(t, i, z, zp):
        return model.rates(t)[:, i]

    nodes = horizon_grid.nodes
    c_vals = np.maximum.reduce([_loss_at(loss_rate, nodes, np.full(nodes.size, i)) for i in range(N)])
    if not np.all(c_vals >= 0):  # NaN fails too
        raise PreconditionError(f"loss rates must be non-negative, got {np.min(c_vals)}")
    beta, beta_tilde = 1.0, 1.0
    k1, k2 = _hitting_time_controls(model, target, beta, beta_tilde)
    return ChainBSDEProblem(
        model=model,
        driver=GammaBalancedDriver(
            f=f,
            eta=eta,
            gamma=1.0,
            c_path=SampledPath(horizon_grid, c_vals, LINEAR),
            c1=0.0,  # monotone decreasing driver: the discounting integral is <= 0
            c2=0.0,
            beta_hat=0.0,
            beta=beta,
            beta_tilde=beta_tilde,
            k1=k1,
            k2=k2,
        ),
        hitting_set=frozenset({target}),
        terminal_fn=lambda t, i: 1.0 if i == target else 0.0,
        markovian=True,
    )


def _hitting_time_controls(model: MarkovChainModel, target: int, beta: float, beta_tilde: float):
    # K1(t) = m1 (1 + t)^{1+beta}: since 1 + t + E <= (1 + t)(1 + E), the
    # conditional moment at time t factors through m1 = E[(1 + E)^{1+beta}]
    # computed under a slowed (hence dominating) exit rate; it also dominates
    # |xi| <= 1.  K2 controls K1(tau)^{1+beta~} the same way.
    exit_rates = -np.diag(model.rates(0.0))
    exit0 = max(1e-6, float(np.min(np.delete(exit_rates, target))))
    rate = 0.5 * exit0
    ts = np.linspace(0.0, 120.0 / rate, 6001)
    dens = rate * np.exp(-rate * ts)
    m1 = max(1.0, float(np.trapezoid((1.0 + ts) ** (1.0 + beta) * dens, ts)))
    p2 = (1.0 + beta) * (1.0 + beta_tilde)
    m2 = max(1.0, float(np.trapezoid((1.0 + ts) ** p2 * dens, ts))) * m1 ** (1.0 + beta_tilde)
    k1 = lambda t, m1=m1, b=beta: m1 * (1.0 + t) ** (1.0 + b)  # noqa: E731
    k2 = lambda t, m2=m2, p=p2: m2 * (1.0 + t) ** p  # noqa: E731
    return k1, k2


def simulate_killed_chain(
    model: MarkovChainModel,
    loss_rate: LossFn,
    target: int,
    horizon: float,
    paths: int,
    seed: int,
    loss_bound: float,
) -> tuple[float, float, float]:
    """Reach frequency with killing at the loss rate; (estimate, se, killed fraction).

    ``loss_rate`` is called once per thinning round, with the candidate
    times and the paths' states as arrays; a negative or NaN value raises
    ``InvariantError``.
    """
    _, reached, killed = _thin(
        model, horizon, paths, seed, loss_rate=loss_rate, loss_bound=loss_bound, target=target
    )
    est = float(np.mean(reached))
    se = math.sqrt(max(est * (1.0 - est), 1e-12) / paths)
    return est, se, float(np.mean(killed))


# nodes of the message equation's grid on [0, horizon]
_MESSAGE_NODES = 201


def message_transmission(
    model: MarkovChainModel,
    loss_rate: LossFn,
    source: int,
    target: int,
    horizon: float,
    paths: int,
    seed: int,
) -> MessageReport:
    """Reach probability two ways: the tamed backward equation and killed-chain MC.

    The equation route builds the y-coefficient clock on 201 nodes over
    ``[0, horizon]``, transforms the chain and driver, solves the backward
    ODE system on the stretched horizon and maps the value function back.
    The Monte Carlo route kills the walker at
    the loss rate and counts arrivals.  ``loss_rate`` takes one time and
    state or arrays of both (see ``LossFn``); its bound is its largest value
    at times 0 and ``horizon``, read in one call over both times and every
    state.
    """
    if model.initial != source:
        model = replace(model, initial=source)
    grid = TimeGrid.uniform(horizon, _MESSAGE_NODES)
    problem = build_message_problem(model, loss_rate, target, grid)
    clock = chain_clock(problem.driver.c_path, problem.driver.c2, target="image")
    tilde = transform_chain_problem(problem, clock)
    tilde_sol = solve_chain_bsde(tilde, "markov-ode", clock.target_grid)
    sol = map_chain_solution(tilde_sol, clock)
    y0 = sol.value_at(0.0, source)

    states = np.tile(np.arange(model.n_states), 2)
    loss_bound = float(np.max(_loss_at(loss_rate, np.repeat([0.0, horizon], model.n_states), states)))
    est, se, kfrac = simulate_killed_chain(
        model, loss_rate, target, horizon, paths, seed, loss_bound
    )
    tail = tilde_sol.metadata.get("tail_probability", float("nan"))
    return MessageReport(
        reach_probability=y0,
        values=sol,
        mc_estimate=est,
        mc_se=se,
        mc_killed=kfrac,
        tail_probability=tail,
        horizon=horizon,
    )
