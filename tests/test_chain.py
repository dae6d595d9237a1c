import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcbsde.errors import ConfigError, DomainError, InvariantError, PreconditionError, StructuralError
from tcbsde.timechange import LINEAR, SampledPath, TimeChangeMap, TimeGrid
from tcbsde.chain import (
    BalanceReport,
    ChainBSDEProblem,
    ChainPath,
    GammaBalancedDriver,
    MarkovChainModel,
    chain_clock,
    check_gamma_balanced,
    occupancy,
    psi_matrix,
    simulate_chain,
    transform_chain,
    transform_chain_driver,
    transform_chain_problem,
)

from balance_reference import reference_balance
from util import per_time, rate_stack


def two_state_model(lam=1.0, mu=1.0, initial=0):
    A = np.array([[-lam, mu], [lam, -mu]])
    return MarkovChainModel(2, lambda t: A, initial, rate_bound=max(lam, mu))


def flat_driver(grid, model, c=0.0, gamma=1.0):
    return GammaBalancedDriver(
        f=lambda t, i, y, z: -c * y,
        eta=lambda t, i, z, zp: model.rates(t)[:, i],
        gamma=gamma,
        c_path=SampledPath(grid, np.full(grid.n_nodes, c), LINEAR),
        c1=0.0,
        c2=0.0,
        beta_hat=0.0,
        beta=1.0,
        beta_tilde=1.0,
        k1=lambda t: 1.0,
        k2=lambda t: 1.0,
    )


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def test_holding_time_mean():
    # exponential-mean oracle: unit rates give unit mean holding times; only
    # the first hold per path is used so horizon censoring cannot bias it
    model = two_state_model(1.0, 1.0)
    paths = simulate_chain(model, horizon=10.0, paths=10_000, seed=42)
    holds = [p.jump_times[0] for p in paths if p.jump_times.size]
    mean = float(np.mean(holds))
    assert 0.97 <= mean <= 1.03


def test_absorbing_state_never_exits():
    A = np.array([[-1.0, 0.0], [1.0, 0.0]])  # state 1 absorbing
    model = MarkovChainModel(2, lambda t: A, 0, rate_bound=1.0)
    for p in simulate_chain(model, 20.0, 200, seed=1):
        states = p.states
        if 1 in states:
            assert states[-1] == 1
            assert np.all(states[np.argmax(states == 1) :] == 1)


def test_symmetric_occupancy():
    # stationary distribution oracle for the symmetric 2-state chain
    model = two_state_model(1.0, 1.0)
    P = 10_000
    paths = simulate_chain(model, 10.0, P, seed=7)
    occ = occupancy(paths, 10.0, 2)
    assert abs(occ[0] - 0.5) <= 3.0 / math.sqrt(P)


def test_simulation_deterministic_per_seed():
    model = two_state_model(2.0, 0.5)
    a = simulate_chain(model, 5.0, 50, seed=9)
    b = simulate_chain(model, 5.0, 50, seed=9)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.jump_times, pb.jump_times)
        assert np.array_equal(pa.states, pb.states)


def test_rate_above_bound_rejected():
    A = np.array([[-3.0, 0.0], [3.0, 0.0]])
    model = MarkovChainModel(2, lambda t: A, 0, rate_bound=1.0)
    with pytest.raises(InvariantError):
        simulate_chain(model, 50.0, 200, seed=0)


def test_non_finite_rate_rejected():
    # the column sum is NaN, so only the exit-rate bound would object, and
    # with the wrong reason
    def rate_fn(t):
        lam = np.where(np.asarray(t) >= 0.5, math.inf, 1.0)
        return rate_stack(t, [[-lam, 0.0], [lam, 0.0]])

    model = MarkovChainModel(2, rate_fn, 0, rate_bound=2.0)
    model.validate([0.0, 0.25])
    with pytest.raises(InvariantError, match="not finite at t=0.5"):
        model.validate([0.0, 0.5, 1.0])


@pytest.mark.parametrize("initial", [-1, 2, 5])
def test_initial_state_outside_the_chain_rejected(initial):
    # -1 would start every path in state -1 and jump at state 1's rates
    A = np.array([[-1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ConfigError, match="initial state"):
        MarkovChainModel(2, lambda t: A, initial, rate_bound=1.0)
    model = MarkovChainModel(2, lambda t: A, 0, rate_bound=1.0)
    grid = TimeGrid.uniform(1.0, 11)
    tilde = transform_chain(model, chain_clock(SampledPath(grid, 1.0 + grid.nodes, LINEAR), c2=0.0))
    for m in (model, tilde):
        with pytest.raises(ConfigError, match="initial state"):
            replace(m, initial=initial)


def test_validate_accepts_no_times():
    # an empty stack of rate matrices has shape (0, N, N) and nothing to reject
    A = np.array([[-2.0, 1.0, 0.0], [1.5, -2.0, 0.0], [0.5, 1.0, 0.0]])
    model = MarkovChainModel(3, lambda t: A, 0, rate_bound=2.0)
    assert model.rates(np.array([])).shape == (0, 3, 3)
    model.validate([])
    model.validate(np.array([]))


# ---------------------------------------------------------------------------
# compensated indicator process
# ---------------------------------------------------------------------------


def doob_meyer_martingale(
    path: ChainPath, model: MarkovChainModel, grid: TimeGrid
) -> np.ndarray:
    """Compensated indicator process ``M_t = X_t - X_0 - int A X ds`` at the grid nodes, shape ``(n, N)``.

    The compensator integral splits each grid step at the jump times, holding
    the pre-jump state on every segment; time variation of the rates is
    handled by trapezoidal quadrature within segments.
    """
    if path.jump_times.size and path.jump_times[-1] > grid.t_end + 1e-12:
        raise StructuralError("path jumps beyond the requested grid")
    N = model.n_states
    nodes = grid.nodes
    cut = np.unique(np.concatenate([nodes, path.jump_times]))
    comp_at_cut = np.zeros((cut.size, N))
    acc = np.zeros(N)
    for i in range(cut.size - 1):
        a, b = cut[i], cut[i + 1]
        # state over (a, b]: the state just after a (cadlag, jumps are cut points)
        s = int(path.state_at(a))
        fa = model.rates(a)[:, s]
        fb = model.rates(b)[:, s]
        acc = acc + 0.5 * (fa + fb) * (b - a)
        comp_at_cut[i + 1] = acc
    comp = comp_at_cut[np.searchsorted(cut, nodes)]
    eye = np.eye(N)
    X = eye[path.state_at(nodes)]
    return X - eye[path.states[0]][None, :] - comp


def test_martingale_mean_vanishes():
    model = two_state_model(1.0, 1.0)
    grid = TimeGrid.uniform(1.0, 21)
    paths = simulate_chain(model, 1.0, 10_000, seed=3)
    M1 = np.array([doob_meyer_martingale(p, model, grid)[-1] for p in paths])
    mean = M1.mean(axis=0)
    se = M1.std(axis=0) / math.sqrt(len(paths))
    assert np.all(np.abs(mean) <= 3.0 * se)


def test_martingale_forced_jump_formula():
    # direct formula: drift -A e_old t before the jump at 0.5, then the unit
    # jump e_new - e_old plus drift -A e_new (t - 0.5)
    model = two_state_model(1.0, 2.0)
    path = ChainPath(np.array([0.5]), np.array([0, 1]))
    grid = TimeGrid.uniform(1.0, 5)
    A = model.rates(0.0)
    M = doob_meyer_martingale(path, model, grid)
    e0, e1 = np.eye(2)
    want_before = -A @ e0 * 0.25
    assert np.allclose(M[1], want_before)
    want_after = (e1 - e0) - A @ e0 * 0.5 - A @ e1 * 0.25
    assert np.allclose(M[3], want_after)


def test_martingale_absorbing_constant():
    A = np.array([[0.0, 1.0], [0.0, -1.0]])  # state 0 absorbing
    model = MarkovChainModel(2, lambda t: A, 0, rate_bound=1.0)
    path = ChainPath(np.array([]), np.array([0]))
    grid = TimeGrid.uniform(1.0, 11)
    M = doob_meyer_martingale(path, model, grid)
    assert np.allclose(M, 0.0)


# ---------------------------------------------------------------------------
# bracket density
# ---------------------------------------------------------------------------


def test_psi_two_state_hand_computed():
    lam, mu = 1.7, 0.4
    A = np.array([[-lam, mu], [lam, -mu]])
    psi = psi_matrix(A, np.array([1.0, 0.0]))
    assert np.array_equal(psi, psi.T)
    assert np.allclose(psi, [[lam, -lam], [-lam, lam]])
    eig = np.linalg.eigvalsh(psi)
    assert np.allclose(sorted(eig), [0.0, 2 * lam], atol=1e-12)


def test_psi_zero_generator():
    assert np.allclose(psi_matrix(np.zeros((3, 3)), np.eye(3)[1]), 0.0)


def test_psi_random_generators_psd():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        A = rng.uniform(0.0, 3.0, size=(n, n))
        np.fill_diagonal(A, 0.0)
        A -= np.diag(A.sum(axis=0))
        for i in range(n):
            psi = psi_matrix(A, np.eye(n)[i])
            assert np.array_equal(psi, psi.T)
            assert np.linalg.eigvalsh(psi).min() >= -1e-12


def semi_norm(z: np.ndarray, psi: np.ndarray) -> float:
    """Quadratic form ``z^T psi z``; vanishes on constant shifts of z."""
    psi = np.asarray(psi, dtype=float)
    if not np.allclose(psi, psi.T, atol=1e-12):
        raise PreconditionError("psi must be symmetric")
    val = float(np.asarray(z) @ psi @ np.asarray(z))
    return max(val, 0.0)


def test_semi_norm_values():
    lam = 0.9
    psi = np.array([[lam, -lam], [-lam, lam]])
    assert semi_norm(np.zeros(2), psi) == 0.0
    assert semi_norm(np.array([1.0, 1.0]), psi) == pytest.approx(0.0, abs=1e-12)
    assert semi_norm(np.array([1.0, 0.0]), psi) == pytest.approx(lam)
    with pytest.raises(PreconditionError):
        semi_norm(np.ones(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


@settings(max_examples=50, deadline=None)
@given(shift=st.floats(-5.0, 5.0), z0=st.floats(-3.0, 3.0), z1=st.floats(-3.0, 3.0))
def test_semi_norm_shift_invariance(shift, z0, z1):
    A = np.array([[-1.0, 2.0], [1.0, -2.0]])
    psi = psi_matrix(A, np.array([0.0, 1.0]))
    z = np.array([z0, z1])
    a = semi_norm(z, psi)
    b = semi_norm(z + shift, psi)
    assert a == pytest.approx(b, abs=1e-9 * (1 + abs(a)))


# ---------------------------------------------------------------------------
# balance checks
# ---------------------------------------------------------------------------


def _varying_rates(t):
    return rate_stack(t, [[-(1.0 + t), 0.5, 0.0], [1.0 + t, -1.0, 0.2], [0.0, 0.5, -0.2]])


def _five_state_rates(t):
    return rate_stack(t, [
        [-(1.0 + t), 0.5, 0.0, 0.3, 0.2],
        [0.4 + t, -1.0, 0.2, 0.0, 0.4],
        [0.3, 0.2, -(0.3 + 0.5 * t), 0.4, 0.0],
        [0.2, 0.0, 0.5 * t, -1.0, 0.2],
        [0.1, 0.3, 0.1, 0.3, -0.8],
    ])


def _weighted_driver(grid, rates=_varying_rates, w=(1.0, 2.5, 0.5)):
    # every field nonzero: out of state 0 a rate off [gamma, 1/gamma] = [1/2, 2],
    # out of state 1 a dependence on z_0, and an f off the difference
    # identity by 0.1 z_0^2
    w = np.array(w)

    def eta(t, i, z, zp):
        col = rates(t)[:, i]
        if i == 0:
            return w * col
        if i == 1:
            return col * (1.0 + 0.1 * np.tanh(z[0]))
        return col

    def f(t, i, y, z):
        return float(z @ (eta(t, i, z, None) - rates(t)[:, i])) + 0.1 * z[0] ** 2 - (1.0 + 2.0 * t) * y

    return GammaBalancedDriver(
        f=f, eta=eta, gamma=0.5, c_path=SampledPath(grid, 1.0 + 2.0 * grid.nodes, LINEAR),
        c1=0.0, c2=0.0, beta_hat=0.0, beta=1.0, beta_tilde=1.0,
        k1=lambda t: 1.0, k2=lambda t: 1.0,
    )


def _balance_case(case):
    grid = TimeGrid.uniform(5.0, 51)
    if case == "constant":
        model = two_state_model(1.0, 2.0)
        return flat_driver(grid, model), model, 5.0
    if case == "five-state":
        drv = _weighted_driver(grid, _five_state_rates, (1.0, 2.5, 0.5, 1.0, 1.5))
        return drv, MarkovChainModel(5, _five_state_rates, 0, rate_bound=10.0), 5.0
    drv = _weighted_driver(grid)
    model = MarkovChainModel(3, _varying_rates, 0, rate_bound=10.0)
    if case == "time-varying":
        return drv, model, 5.0
    clock = chain_clock(drv.c_path, c2=0.0)
    return transform_chain_driver(drv, clock), transform_chain(model, clock), float(clock.target_grid.t_end)


@pytest.mark.parametrize(
    "case, probes, calls",
    [
        ("constant", 200, 1),
        ("constant", 2, 2),  # m = N with an (N, N) return: one more call at the first time
        ("time-varying", 200, 1),
        ("time-varying", 3, 1),
        ("clocked", 200, 1),
        ("clocked", 3, 1),
        ("five-state", 200, 1),
        ("five-state", 5, 1),
    ],
)
def test_balance_reads_the_rates_once_and_keeps_its_report(case, probes, calls):
    driver, model, t_max = _balance_case(case)
    seen = []

    def rate_fn(t):
        seen.append(np.ndim(t))
        return model.rate_fn(t)

    counted = replace(model, rate_fn=rate_fn)
    rep = check_gamma_balanced(driver, counted, probes, t_max=t_max, seed=11)
    assert len(seen) == calls and seen[0] == 1
    ref = reference_balance(driver, model, probes, t_max=t_max, seed=11)
    assert dataclasses.astuple(rep) == dataclasses.astuple(ref)
    assert all(type(v) is type(r) for v, r in zip(dataclasses.astuple(rep), dataclasses.astuple(ref)))


def test_compensator_driver_is_balanced():
    grid = TimeGrid.uniform(1.0, 11)
    model = two_state_model(1.0, 2.0)
    rep = check_gamma_balanced(flat_driver(grid, model), model, probes=200, seed=1)
    assert rep.passed
    assert rep.worst_ratio_deviation == 0.0


def test_weighted_eta_balanced_for_half_gamma():
    # constructed ratios (1, 1.5, 0.5) on a 3-state generator, gamma = 0.5
    A = np.array([[-2.0, 0.0, 0.0], [1.0, -1.0, 0.0], [1.0, 1.0, 0.0]])
    model = MarkovChainModel(3, lambda t: A, 0, rate_bound=2.0)
    w = np.array([1.0, 1.5, 0.5])

    def eta(t, i, z, zp):
        return w * A[:, i] if i == 0 else A[:, i]

    def f(t, i, y, z):
        e = eta(t, i, z, zp=None)
        return float(z @ (e - A[:, i]))

    grid = TimeGrid.uniform(1.0, 11)
    drv = GammaBalancedDriver(
        f=f, eta=eta, gamma=0.5, c_path=SampledPath(grid, np.zeros(11), LINEAR),
        c1=0.0, c2=0.0, beta_hat=0.0, beta=1.0, beta_tilde=1.0,
        k1=lambda t: 1.0, k2=lambda t: 1.0,
    )
    rep = check_gamma_balanced(drv, model, probes=400, seed=2)
    assert rep.passed


def test_sum_violation_reported_with_magnitude_one():
    grid = TimeGrid.uniform(1.0, 11)
    model = two_state_model(1.0, 2.0)
    base = flat_driver(grid, model)

    def bad_eta(t, i, z, zp):
        return model.rates(t)[:, i] + np.array([1.0, 0.0])

    bad = GammaBalancedDriver(
        f=base.f, eta=bad_eta, gamma=1.0, c_path=base.c_path,
        c1=0.0, c2=0.0, beta_hat=0.0, beta=1.0, beta_tilde=1.0,
        k1=base.k1, k2=base.k2,
    )
    rep = check_gamma_balanced(bad, model, probes=100, seed=3)
    assert not rep.passed
    assert rep.worst_sum == pytest.approx(1.0)


def test_nan_driver_fails_the_balance_check():
    # NaN from f and eta everywhere: every worst value is NaN, and NaN is no pass
    grid = TimeGrid.uniform(1.0, 11)
    model = two_state_model(1.0, 2.0)
    base = flat_driver(grid, model)
    nan = GammaBalancedDriver(
        f=lambda t, i, y, z: float("nan"), eta=lambda t, i, z, zp: np.full(2, np.nan),
        gamma=1.0, c_path=base.c_path,
        c1=0.0, c2=0.0, beta_hat=0.0, beta=1.0, beta_tilde=1.0,
        k1=base.k1, k2=base.k2,
    )
    rep = check_gamma_balanced(nan, model, probes=20, seed=1)
    fields = (rep.worst_difference_identity, rep.worst_ratio_deviation, rep.worst_sum,
              rep.worst_shift_invariance)
    assert all(type(v) is float and math.isnan(v) for v in fields)
    assert rep.passed is False


def test_balance_report_holds_python_scalars():
    grid = TimeGrid.uniform(1.0, 11)
    model = two_state_model(1.0, 2.0)
    rep = check_gamma_balanced(flat_driver(grid, model), model, probes=20, seed=1)
    assert rep.passed is True
    assert all(type(v) is float for v in (rep.worst_difference_identity, rep.worst_ratio_deviation,
                                          rep.worst_sum, rep.worst_shift_invariance))


@pytest.mark.parametrize("t_max", [5.0, 178.6688, 39.99999999999999, 1e-300, 3.0e300])
def test_probe_time_draw_is_numpys_uniform_draw(t_max):
    # check_gamma_balanced draws a probe's time as t_max * rng.random(), the
    # draw of rng.uniform(0.0, t_max), which is low + (high - low) U: in the
    # probe loop's order (the time, the state, the sized uniform) both forms
    # must give the same bits, or a NumPy release that changes uniform would
    # move the balance tables without a failing test
    probes, N = 20_000, 3
    fast, slow = np.random.default_rng(17), np.random.default_rng(17)
    t_fast, t_slow = [], []
    for _ in range(probes):
        t_fast.append(t_max * fast.random())
        t_slow.append(float(slow.uniform(0.0, t_max)))
        assert int(fast.integers(0, N)) == int(slow.integers(0, N))
        fast.uniform(-2.0, 2.0, size=2 * N + 2)
        slow.uniform(-2.0, 2.0, size=2 * N + 2)
    assert np.array_equal(np.array(t_fast).view(np.uint64), np.array(t_slow).view(np.uint64))
    assert np.array_equal(fast.random(4), slow.random(4))


# ---------------------------------------------------------------------------
# chain transforms
# ---------------------------------------------------------------------------


def test_transform_chain_identity():
    grid = TimeGrid.uniform(1.0, 51)
    model = two_state_model(1.0, 2.0)
    tilde = transform_chain(model, TimeChangeMap.identity(grid))
    assert np.allclose(tilde.rates(0.5), model.rates(0.5))


def test_transform_chain_constant_density():
    # alpha^2 = 2: rates halve and run on the stretched scale
    grid = TimeGrid.uniform(1.0, 101)
    model = two_state_model(1.0, 2.0)
    clock = chain_clock(SampledPath(grid, np.full(101, 2.0), LINEAR), c2=0.0)
    tilde = transform_chain(model, clock)
    assert np.allclose(tilde.rates(1.0), model.rates(0.5) / 2.0, atol=1e-9)
    cols = tilde.rates(1.0).sum(axis=0)
    assert np.allclose(cols, 0.0, atol=1e-12)


def test_transform_chain_rejects_fast_clock():
    grid = TimeGrid.uniform(1.0, 51)
    from tcbsde.timechange import build_clock_from_density

    slow = build_clock_from_density(SampledPath(grid, np.full(51, 0.5), LINEAR), eps=0.5)
    with pytest.raises(InvariantError):
        transform_chain(two_state_model(), slow)


def test_transform_occupancy_law():
    # occupancy of the transformed chain at t matches the original at inv(t)
    P = 10_000
    grid = TimeGrid.uniform(2.0, 101)
    model = two_state_model(1.0, 1.0)
    clock = chain_clock(SampledPath(grid, np.full(101, 2.0), LINEAR), c2=0.0)
    tilde = transform_chain(model, clock)
    t = 1.5
    occ_tilde = occupancy(simulate_chain(tilde, 2.0, P, seed=11), t, 2)
    s = float(clock.inverse_at(t))
    occ_orig = occupancy(simulate_chain(model, 2.0, P, seed=12), s, 2)
    assert np.max(np.abs(occ_tilde - occ_orig)) <= 3.0 / math.sqrt(P)


def test_transform_driver_rescales_coefficient():
    # C = 4, C2 = 1: density 4, transformed y-coefficient exactly 1
    grid = TimeGrid.uniform(1.0, 101)
    model = two_state_model(1.0, 2.0)
    drv = flat_driver(grid, model, c=4.0)
    clock = chain_clock(drv.c_path, c2=1.0)
    tilde = transform_chain_driver(drv, clock)
    assert np.allclose(tilde.c_path.values, 1.0, atol=1e-9)
    y = 0.7
    got = tilde.f(2.0, 0, y, np.zeros(2))
    assert got == pytest.approx(-1.0 * y, rel=1e-9)


def test_balance_survives_transform_with_same_gamma():
    A = np.array([[-2.0, 0.0, 0.0], [1.0, -1.0, 0.0], [1.0, 1.0, 0.0]])
    model = MarkovChainModel(3, lambda t: A, 0, rate_bound=2.0)
    grid = TimeGrid.uniform(1.0, 101)
    w = np.array([1.0, 1.5, 0.5])

    def eta(t, i, z, zp):
        return w * A[:, i] if i == 0 else A[:, i]

    def f(t, i, y, z):
        return float(z @ (eta(t, i, z, None) - A[:, i])) - (1.0 + 3.0 * t) * y

    c = SampledPath(grid, 1.0 + 3.0 * grid.nodes, LINEAR)
    drv = GammaBalancedDriver(
        f=f, eta=eta, gamma=0.5, c_path=c,
        c1=0.0, c2=0.0, beta_hat=0.0, beta=1.0, beta_tilde=1.0,
        k1=lambda t: 1.0, k2=lambda t: 1.0,
    )
    clock = chain_clock(c, c2=0.0)
    tilde_model = transform_chain(model, clock)
    tilde_drv = transform_chain_driver(drv, clock)
    rep = check_gamma_balanced(
        tilde_drv, tilde_model, probes=300, t_max=float(clock.target_grid.t_end), seed=5
    )
    assert rep.passed
    assert np.all(tilde_drv.c_path.values <= 1.0 + 1e-9)


def _counted_clock_reads(monkeypatch):
    """Patch the clock read and ``SampledPath.at`` to record their calls."""
    reads, calls = [], []
    orig_read, orig_at = TimeChangeMap.inverse_density_at, SampledPath.at

    def counted_read(self, u):
        reads.append(u)
        return orig_read(self, u)

    def counted_at(self, t):
        calls.append(t)
        return orig_at(self, t)

    # patched first: the callbacks bind the read when they are built
    monkeypatch.setattr(TimeChangeMap, "inverse_density_at", counted_read)
    return reads, calls, lambda: monkeypatch.setattr(SampledPath, "at", counted_at)


def test_clocked_driver_reads_the_clock_once_per_time(monkeypatch):
    # the driver's f, eta, k1 and k2 share one scalar clock read per distinct
    # time; the model and the terminal read once per call; none calls
    # SampledPath.at
    reads, calls, count_at = _counted_clock_reads(monkeypatch)
    grid = TimeGrid.uniform(2.0, 81)
    model = two_state_model(1.0, 2.0)
    drv = replace(flat_driver(grid, model, c=0.5), k1=lambda t: 1.0 + t, k2=lambda t: 2.0 + t * t)
    clock = chain_clock(SampledPath(grid, 1.0 + grid.nodes, LINEAR), c2=0.0)
    tilde_model = transform_chain(model, clock)
    tilde_drv = transform_chain_driver(drv, clock)
    problem = transform_chain_problem(
        ChainBSDEProblem(model, drv, frozenset({1}), lambda t, i: t + i), clock
    )
    count_at()
    z = np.array([0.3, -0.2])
    callbacks = (
        lambda u: tilde_drv.f(u, 0, 0.7, z),
        lambda u: tilde_drv.eta(u, 1, z, z),
        lambda u: tilde_drv.k1(u),
        lambda u: tilde_drv.k2(u),
    )
    s, a2 = clock.inverse_density_at(1.3)
    reads.clear()
    values = [evaluate(1.3) for evaluate in callbacks]
    assert reads == [1.3] and calls == []
    # the kept read gives what a fresh one gives
    assert values[0] == drv.f(s, 0, 0.7, z) * (1.0 / a2)
    assert np.array_equal(values[1], model.rates(s)[:, 1] * (1.0 / a2))
    assert values[2:] == [1.0 + s, 2.0 + s * s]
    # a new time reads again, and so does the old one after it
    for u in (1.7, 1.3):
        reads.clear()
        for evaluate in callbacks:
            evaluate(u)
        assert reads == [u]
    # a NaN and an out-of-range time reach the read on every call and raise
    top = float(clock.forward.values[-1])
    for bad in (math.nan, -1.0, top + 1.0):
        for evaluate in callbacks:
            reads.clear()
            with pytest.raises(DomainError):
                evaluate(bad)
            assert len(reads) == 1 and (reads[0] == bad or math.isnan(bad))
    # an array of times reads through, once per call
    u = np.array([1.3, 1.3])
    expected = 1.0 + clock.inverse_at(u)
    reads.clear()
    assert np.array_equal(tilde_drv.k1(u), expected)
    tilde_drv.k1(u)
    assert len(reads) == 2 and all(r is u for r in reads)
    # the model and the terminal read once per call, at the same time too
    for evaluate in (lambda u: tilde_model.rates(u), lambda u: problem.terminal_fn(u, 1)):
        reads.clear()
        evaluate(1.3)
        evaluate(1.3)
        assert reads == [1.3, 1.3]
    assert calls == []


def test_balance_probes_read_a_clocked_driver_once_each(monkeypatch):
    # four driver calls per probe at one time make one scalar read; the
    # rates at every probe's time are one array read
    reads, _, _ = _counted_clock_reads(monkeypatch)
    grid = TimeGrid.uniform(2.0, 81)
    model = two_state_model(1.0, 2.0)
    clock = chain_clock(SampledPath(grid, 1.0 + grid.nodes, LINEAR), c2=0.0)
    tilde_model = transform_chain(model, clock)
    tilde_drv = transform_chain_driver(flat_driver(grid, model, c=0.5), clock)
    reads.clear()
    check_gamma_balanced(tilde_drv, tilde_model, 40, t_max=clock.target_grid.t_end, seed=3)
    scalar = [r for r in reads if not isinstance(r, np.ndarray)]
    assert len(scalar) == 40 and len(reads) == 41
    assert isinstance(reads[-1], np.ndarray) and reads[-1].tolist() == scalar


def test_rerooted_clocked_model_keeps_its_clock(monkeypatch):
    # message_transmission re-roots a model whose initial state is not the source
    import tcbsde.chain as chain

    grid = TimeGrid.uniform(2.0, 81)
    A = np.array([[-1.0, 0.0], [1.0, 0.0]])
    base = MarkovChainModel(2, lambda t: A * per_time(1.0 + t), 1, rate_bound=3.0)
    clock = chain_clock(SampledPath(grid, 1.0 + grid.nodes, LINEAR), c2=0.0)
    tilde = transform_chain(base, clock)
    seen = []
    orig = chain.build_message_problem

    def spy(model, *args, **kwargs):
        seen.append(model)
        return orig(model, *args, **kwargs)

    monkeypatch.setattr(chain, "build_message_problem", spy)
    chain.message_transmission(
        tilde, lambda t, i: 0.5, source=0, target=1, horizon=1.0, paths=200, seed=0
    )
    rerooted = seen[0]
    assert rerooted.initial == 0 and rerooted.rate_fn is tilde.rate_fn
    u = np.linspace(0.0, 1.0, 17)
    s = clock.inverse_at(u)
    assert np.array_equal(rerooted.rates(u), base.rates(s) * (1.0 / clock.density_at(s))[:, None, None])
    assert np.array_equal(rerooted.rates(u), tilde.rates(u))
    for t in u.tolist():
        s = float(clock.inverse_at(t))
        assert np.array_equal(rerooted.rates(t), base.rates(s) * (1.0 / float(clock.density_at(s))))
        assert np.array_equal(rerooted.rates(t), tilde.rates(t))
        assert np.array_equal(rerooted.rate_fn(t), tilde.rates(t))
