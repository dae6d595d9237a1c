"""The batched thinning kernel behind ``simulate_chain`` and ``simulate_killed_chain``.

Checked against exact laws, against the path-by-path loop kept in
``thinning_reference``, and on injected generator defects.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm
from scipy.stats import kstest

from tcbsde.chain import (
    ChainPath,
    ChainPaths,
    MarkovChainModel,
    build_message_problem,
    chain_clock,
    occupancy,
    simulate_chain,
    simulate_killed_chain,
    solve_chain_bsde,
    transform_chain,
)
from tcbsde.chain import _check_rate_batch, _column_sums, _thin
from tcbsde.errors import InvariantError, PreconditionError, StructuralError
from tcbsde.timechange import LINEAR, SampledPath, TimeGrid

from thinning_reference import (
    reference_check_rate_batch,
    reference_killed_chain,
    reference_simulate_chain,
)
from util import per_time, rate_stack


def two_state(lam=1.0, mu=1.0):
    A = np.array([[-lam, mu], [lam, -mu]])
    return MarkovChainModel(2, lambda t: A, 0, rate_bound=max(lam, mu))


def line(lam=1.0):
    A = np.array([[-lam, 0.0], [lam, 0.0]])
    return MarkovChainModel(2, lambda t: A, 0, rate_bound=lam)


def three_state_varying():
    # rates grow with t; the bound covers t <= 2
    def rates(t):
        a = 1.0 + 0.5 * np.asarray(t)
        return rate_stack(t, [[-a, 0.5, 0.2], [0.6 * a, -1.0, 0.8], [0.4 * a, 0.5, -1.0]])

    return MarkovChainModel(3, rates, 0, rate_bound=2.0)


def within(p_hat, p, paths, sigmas=4.0):
    return abs(p_hat - p) <= sigmas * math.sqrt(max(p * (1.0 - p), 1e-12) / paths)


# ---------------------------------------------------------------------------
# exact laws
# ---------------------------------------------------------------------------


def test_two_state_occupancy_exact_law():
    # P(X_t = 0) = 1/2 + 1/2 exp(-2t) for unit rates from state 0
    P = 20_000
    paths = simulate_chain(two_state(), 3.0, P, seed=21)
    for t in (0.1, 0.5, 1.0, 2.0, 2.9):
        assert within(occupancy(paths, t, 2)[0], 0.5 + 0.5 * math.exp(-2.0 * t), P), t


def test_transformed_two_state_occupancy_exact_law():
    # clock density 1 + t on [0, 2]: phi(t) = t + t^2/2, so the transformed
    # chain has run for C(u) = sqrt(1 + 2u) - 1 original time units at u
    grid = TimeGrid.uniform(2.0, 201)
    clock = chain_clock(SampledPath(grid, 1.0 + grid.nodes, LINEAR), c2=0.0)
    tilde = transform_chain(two_state(), clock)
    P = 20_000
    paths = simulate_chain(tilde, clock.target_grid.t_end, P, seed=22)
    for u in (0.5, 1.5, 3.0, 3.9):
        c = math.sqrt(1.0 + 2.0 * u) - 1.0
        assert within(occupancy(paths, u, 2)[0], 0.5 + 0.5 * math.exp(-2.0 * c), P), u


def test_holding_times_exponential():
    paths = simulate_chain(two_state(lam=2.0, mu=0.5), 20.0, 4000, seed=23)
    holds = np.array([p.jump_times[0] for p in paths if p.jump_times.size])
    assert holds.size == 4000  # P(no jump by 20) = exp(-40)
    assert kstest(holds, "expon", args=(0.0, 0.5)).pvalue > 0.01


def test_first_jump_time_varying_rate():
    # exit rate 1 + t: P(T <= t) = 1 - exp(-t - t^2/2), conditioned on T < 4
    def rates(t):
        a = 1.0 + np.asarray(t)
        return rate_stack(t, [[-a, 0.0], [a, 0.0]])

    model = MarkovChainModel(2, rates, 0, rate_bound=5.0)
    first = np.array([p.jump_times[0] for p in simulate_chain(model, 4.0, 4000, seed=24) if p.jump_times.size])
    F4 = 1.0 - math.exp(-12.0)
    assert kstest(first, lambda t: (1.0 - np.exp(-t - 0.5 * t * t)) / F4).pvalue > 0.01


def test_killed_chain_reach_matches_markov_ode():
    loss = lambda t, i: 1.0 + t  # noqa: E731
    grid = TimeGrid.uniform(12.0, 241)
    problem = build_message_problem(line(), loss, 1, grid)
    y0 = solve_chain_bsde(problem, "markov-ode", grid).value_at(0.0, 0)
    est, se, killed = simulate_killed_chain(line(), loss, 1, 12.0, 20_000, seed=25, loss_bound=13.0)
    assert abs(est - y0) <= 3.0 * se
    assert est + killed == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# kernel against the path-by-path loop
# ---------------------------------------------------------------------------


def test_kernel_agrees_with_reference_loop_in_law():
    grid = TimeGrid.uniform(2.0, 101)
    clock = chain_clock(SampledPath(grid, 1.0 + 0.5 * grid.nodes, LINEAR), c2=0.0)
    model = transform_chain(three_state_varying(), clock)
    T = clock.target_grid.t_end
    P = 3000
    fast = simulate_chain(model, T, P, seed=26)
    slow = reference_simulate_chain(model, T, P, seed=27)
    for t in (0.5, 1.0, 2.0, T - 0.01):
        a, b = occupancy(fast, t, 3), occupancy(slow, t, 3)
        se = np.sqrt((a * (1 - a) + b * (1 - b)) / P)
        assert np.all(np.abs(a - b) <= 4.0 * se + 1e-12), (t, a, b)
    na = np.array([p.jump_times.size for p in fast])
    nb = np.array([p.jump_times.size for p in slow])
    assert abs(na.mean() - nb.mean()) <= 4.0 * math.sqrt((na.var() + nb.var()) / P)


def test_killed_kernel_agrees_with_reference_loop():
    model = three_state_varying()
    loss = lambda t, i: 0.3 * (1.0 + t) * (i == 0)  # noqa: E731
    P = 4000
    e1, s1, k1 = simulate_killed_chain(model, loss, 2, 2.0, P, seed=28, loss_bound=0.9)
    e2, s2, k2 = reference_killed_chain(model, loss, 2, 2.0, P, seed=29, loss_bound=0.9)
    assert abs(e1 - e2) <= 4.0 * math.hypot(s1, s2)
    ks = math.sqrt((k1 * (1 - k1) + k2 * (1 - k2)) / P)
    assert abs(k1 - k2) <= 4.0 * ks


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------


@st.composite
def generators(draw):
    N = draw(st.integers(2, 4))
    rate = st.one_of(st.just(0.0), st.floats(0.05, 3.0))
    A = np.array([[draw(rate) for _ in range(N)] for _ in range(N)])
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(A, -A.sum(axis=0))
    slack = draw(st.floats(1.0, 2.0))
    bound = max(float(np.max(-np.diag(A))), 0.1) * slack
    return A, bound, draw(st.integers(0, N - 1))


@settings(max_examples=20, deadline=None)
@given(gen=generators(), horizon=st.floats(0.2, 1.5), seed=st.integers(0, 2**31))
def test_random_generators(gen, horizon, seed):
    A, bound, initial = gen
    N = A.shape[0]
    model = MarkovChainModel(N, lambda t: A, initial, rate_bound=bound)
    P = 2000
    paths = simulate_chain(model, horizon, P, seed)
    for p in paths:
        assert p.states[0] == initial
        assert np.all((p.jump_times > 0.0) & (p.jump_times < horizon))
        assert np.all(A[p.states[1:], p.states[:-1]] > 0.0)  # only along positive rates
    law = expm(A * horizon)[:, initial]
    occ = occupancy(paths, horizon, N)
    se = np.sqrt(np.maximum(law * (1.0 - law), 1e-12) / P)
    assert np.all(np.abs(occ - law) <= 5.0 * se + 1e-9), (occ, law)


# ---------------------------------------------------------------------------
# a time-constant matrix, read once per round
# ---------------------------------------------------------------------------


def materialised(A):
    # the generator of ``lambda t: A``, given as a full stack: no broadcast
    return lambda t: np.repeat(A[None], np.size(t), 0) if np.ndim(t) else A


@pytest.mark.parametrize("killing", [False, True], ids=["no-loss", "loss"])
@pytest.mark.parametrize("stopping", [False, True], ids=["no-target", "target"])
@settings(max_examples=15, deadline=None)
@given(gen=generators(), paths=st.integers(1, 30), horizon=st.floats(0.2, 3.0), seed=st.integers(0, 2**31))
def test_time_constant_rates_thin_as_the_materialised_stack(killing, stopping, gen, paths, horizon, seed):
    # down to a few live paths, so that rounds with m = N occur too
    A, bound, initial = gen
    N = A.shape[0]
    options = {}
    if killing:
        options.update(loss_rate=lambda t, i: 0.5 * (1.0 + np.sin(t)) * (i != 0), loss_bound=1.0)
    if stopping:
        options["target"] = (initial + 1) % N
    runs = [
        _thin(MarkovChainModel(N, rate_fn, initial, rate_bound=bound), horizon, paths, seed, **options)
        for rate_fn in (lambda t: A, materialised(A))
    ]
    (got, got_reached, got_killed), (ref, ref_reached, ref_killed) = runs
    for name in ("initial", "path", "time", "state"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    assert np.array_equal(got_reached, ref_reached)
    assert np.array_equal(got_killed, ref_killed)


_VALID = np.array([[-1.0, 0.5, 0.2], [0.6, -1.0, 0.8], [0.4, 0.5, -1.0]])


def _with(entries):
    B = _VALID.copy()
    for (r, c), x in entries.items():
        B[r, c] = x
    return B


@pytest.mark.parametrize(
    "B, message",
    [
        (_with({(0, 1): np.nan}), "rate matrix is not finite"),
        (_with({(1, 0): -0.2, (0, 0): -0.6, (2, 0): 0.8}), "negative off-diagonal rate"),
        (_with({(1, 0): 0.6 + 1e-8}), "columns do not sum to zero"),
    ],
    ids=["not-finite", "negative", "column-sum"],
)
@pytest.mark.parametrize("paths", [3, 50], ids=["m=N", "m=50"])
def test_defective_constant_rates_fail_as_the_materialised_stack(B, message, paths):
    # the first round raises, at its first time, with the message of the
    # full stack and of the reduction reference; at m = N the broadcast is
    # also compared with one call at that time, which a NaN must pass
    const_calls, stack_calls = [], []
    errors = []
    for rate_fn in (counting(lambda t: B, const_calls), counting(materialised(B), stack_calls)):
        with pytest.raises(InvariantError, match=message) as err:
            simulate_chain(MarkovChainModel(3, rate_fn, 0, rate_bound=1.5), 10.0, paths, seed=4)
        errors.append(str(err.value))
    ((t,),) = stack_calls
    assert t.size == paths and len(const_calls) == (2 if paths == 3 else 1)
    stack = np.repeat(B[None], t.size, 0)
    assert errors == [_failure(reference_check_rate_batch, (stack, t, np.ones(t.size), 1.5))] * 2
    assert errors[0].endswith(f"at t={t[0]}")


# ---------------------------------------------------------------------------
# batched rates and grid states
# ---------------------------------------------------------------------------


def test_batched_transformed_rates_are_bit_identical():
    grid = TimeGrid.uniform(2.0, 81)
    base = three_state_varying()
    clock = chain_clock(SampledPath(grid, 1.0 + grid.nodes**2, LINEAR), c2=0.0)
    tilde = transform_chain(base, clock)
    grid2 = TimeGrid.uniform(clock.target_grid.t_end, 51)
    clock2 = chain_clock(SampledPath(grid2, 1.5 + np.sin(grid2.nodes), LINEAR), c2=0.0)
    twice = transform_chain(tilde, clock2)
    rng = np.random.default_rng(0)
    for model, clock in ((tilde, clock), (twice, clock2)):
        T = clock.target_grid.t_end
        u = np.concatenate([[0.0, T], rng.uniform(0.0, T, 200), clock.target_grid.nodes[:5]])
        stack = model.rates(u)
        assert stack.shape == (u.size, 3, 3)
        for k in range(u.size):
            one = model.rates(float(u[k]))
            assert np.array_equal(stack[k], one), (k, u[k])


def counting(fn, calls):
    def counted(*args):
        calls.append(args)
        return fn(*args)

    return counted


def rounds_of(monkeypatch):
    # every thinning round checks its batch exactly once
    import tcbsde.chain as chain

    rounds = []
    monkeypatch.setattr(chain, "_check_rate_batch", counting(chain._check_rate_batch, rounds))
    return rounds


def test_rate_fn_called_once_per_batch_with_the_float64_array(monkeypatch):
    calls = []
    model = three_state_varying()
    model.rate_fn = counting(model.rate_fn, calls)
    out = model.rates(np.array([0, 1, 2]))
    assert len(calls) == 1
    (t,) = calls[0]
    assert type(t) is np.ndarray and t.dtype == np.float64 and t.tolist() == [0.0, 1.0, 2.0]
    for k, s in enumerate([0.0, 1.0, 2.0]):
        assert np.array_equal(out[k], model.rates(s))
    calls.clear()
    rounds = rounds_of(monkeypatch)
    simulate_chain(model, 2.0, 200, seed=32)
    assert len(rounds) > 1 and len(calls) == len(rounds)
    assert all(type(t) is np.ndarray and t.dtype == np.float64 for (t,) in calls)


def test_time_constant_rate_matrix_is_a_read_only_broadcast_of_a_copy():
    A = np.array([[-1.0, 1.0], [1.0, -1.0]])
    model = MarkovChainModel(2, lambda t: A, 0, rate_bound=1.0)
    out = model.rates(np.array([0.1, 0.2, 0.3]))
    assert out.shape == (3, 2, 2) and not out.flags.writeable
    assert not np.shares_memory(out, A)
    A[0, 0] = -2.0
    assert np.array_equal(out, np.broadcast_to([[-1.0, 1.0], [1.0, -1.0]], (3, 2, 2)))
    with pytest.raises(ValueError):
        out[0, 0, 0] = 0.0


def scalar_style(t):
    a = 1.0 + t
    return np.array([[-a, 0.0], [a, 0.0]])


def branching(t):
    if t < 1.0:
        return np.array([[-1.0, 0.0], [1.0, 0.0]])
    return np.array([[-0.5, 0.0], [0.5, 0.0]])


@pytest.mark.parametrize(
    "rate_fn",
    [
        scalar_style,
        branching,
        lambda t: np.zeros((3, 3)),
        lambda t: np.zeros((np.size(t) + 1, 2, 2)),
        lambda t: np.zeros((np.size(t), 3)),
        lambda t: np.zeros((np.size(t), 2, 2, 1)),
        # (N, N) at m = N, as a time-constant matrix is: both differ from
        # the matrix of the first time alone
        lambda t: np.ones((np.size(t), 2)),
        lambda t: np.array([[-1.0, 1.0], [1.0, -1.0]]) * (1.0 + t),
    ],
    ids=[
        "scalar-style", "branching", "wrong-N", "wrong-m", "too-few-axes", "too-many-axes",
        "m-by-N", "bare-time-factor",
    ],
)
@pytest.mark.parametrize("m", [2, 3, 5])
def test_rate_fn_of_a_wrong_shape_is_rejected(rate_fn, m):
    # a callback written for one time fails on an array instead of being
    # misread, and so does one whose return is (N, N) only because m = N
    model = MarkovChainModel(2, rate_fn, 0, rate_bound=2.0)
    with pytest.raises(StructuralError, match="rate matrix has a wrong shape"):
        model.rates(np.linspace(0.5, 1.5, m))


def test_time_constant_rate_matrix_at_m_equal_to_n_is_checked_against_one_time():
    # one extra call, at the first time alone, and only at m = N
    calls = []
    A = np.array([[-1.0, 1.0], [1.0, -1.0]])
    model = MarkovChainModel(2, counting(lambda t: A, calls), 0, rate_bound=1.0)
    for m in (1, 3, 2):
        out = model.rates(np.linspace(0.5, 1.5, m))
        assert out.strides[0] == 0 and np.array_equal(out, np.broadcast_to(A, (m, 2, 2)))
    assert [type(t) for (t,) in calls] == [np.ndarray, np.ndarray, np.ndarray, float]
    assert calls[-1] == (0.5,)


def test_scalar_style_rate_fn_fails_the_simulation():
    model = MarkovChainModel(2, scalar_style, 0, rate_bound=5.0)
    with pytest.raises(StructuralError, match="rate matrix has a wrong shape"):
        simulate_chain(model, 4.0, 100, seed=0)


def test_loss_rate_called_once_per_round_with_arrays(monkeypatch):
    calls = []
    loss = counting(lambda t, i: 0.3 * (1.0 + t) * (i == 0), calls)
    rounds = rounds_of(monkeypatch)
    simulate_killed_chain(three_state_varying(), loss, 2, 2.0, 300, seed=33, loss_bound=0.9)
    assert len(rounds) > 1 and len(calls) == len(rounds)
    for t, i in calls:
        assert t.dtype == np.float64 and i.dtype.kind == "i" and t.shape == i.shape == (t.size,)


@pytest.mark.parametrize(
    "loss",
    [lambda t, i: np.ones(np.size(t) + 1), lambda t, i: np.ones((np.size(t), 1)), lambda t, i: [t, 1.0]],
    ids=["wrong-m", "two-axes", "ragged"],
)
def test_loss_rate_of_a_wrong_shape_is_rejected(loss):
    with pytest.raises(StructuralError, match="loss rate has a wrong shape"):
        simulate_killed_chain(line(), loss, 1, 5.0, 100, seed=0, loss_bound=1.0)


@pytest.mark.parametrize("value", [np.nan, -0.5], ids=["nan", "negative"])
def test_killed_chain_rejects_a_nan_or_negative_loss_rate(value):
    # before, both read as no loss: the same estimate as a zero loss rate
    calls = []
    loss = counting(lambda t, i: np.where(t < 1.0, 0.0, value), calls)
    with pytest.raises(InvariantError, match="loss rate .* is negative or NaN at t=") as err:
        simulate_killed_chain(line(), loss, 1, 5.0, 1000, seed=0, loss_bound=1.0)
    # the first bad time of the last batch, the one that raised
    t, _ = calls[-1]
    assert str(err.value).endswith(f"at t={t[np.argmax(t >= 1.0)]}")


def hand_batch():
    # path 0 never jumps; path 1 jumps exactly on a node, twice inside one
    # step and once past the grid; path 2 jumps once
    grid = TimeGrid.uniform(1.0, 11)
    on_node = float(grid.nodes[3])
    paths = ChainPaths(
        initial=[1, 0, 2],
        path=[1, 1, 1, 1, 2],
        time=[on_node, 0.52, 0.58, 1.5, 0.05],
        state=[2, 1, 0, 2, 0],
    )
    return grid, on_node, paths


def test_states_on_grid_matches_state_at():
    grid, on_node, paths = hand_batch()
    S = paths.states_at(grid.nodes)
    for k in range(len(paths)):
        assert np.array_equal(S[k], paths[k].state_at(grid.nodes))
    assert np.array_equal(occupancy(paths, on_node, 3), np.array([1.0, 1.0, 1.0]) / 3.0)


def test_chain_paths_batch_contract():
    # what callers of simulate_chain rely on: len, iteration yielding one
    # ChainPath per path, indexing, and states_at agreeing with state_at
    grid, on_node, paths = hand_batch()
    assert len(paths) == 3
    views = list(paths)
    assert all(type(p) is ChainPath for p in views)
    assert [p.jump_times.size for p in views] == [0, 4, 1]
    assert np.array_equal(views[1].jump_times, [on_node, 0.52, 0.58, 1.5])
    assert np.array_equal(views[1].states, [0, 2, 1, 0, 2])
    for k, p in enumerate(views):
        assert np.array_equal(paths[k].jump_times, p.jump_times)
        assert np.array_equal(paths[k].states, p.states)
    assert np.array_equal(paths[-1].states, [2, 0])
    with pytest.raises(IndexError):
        paths[3]
    nodes = grid.nodes
    S = paths.states_at(nodes)
    assert S.shape == (3, nodes.size)
    for k in range(len(paths)):
        assert np.array_equal(S[k], paths[k].state_at(nodes))
    assert S[1, 3] == 2 and S[1, 2] == 0  # the jump on node 3 counts from that node on
    assert paths.states_at([]).shape == (3, 0)
    with pytest.raises(PreconditionError):
        paths.states_at([0.5, 0.2])


@pytest.mark.parametrize("paths", [0, -1, 2.5, True])
def test_path_count_must_be_a_positive_integer(paths):
    model = two_state()
    with pytest.raises(PreconditionError):
        simulate_killed_chain(model, lambda t, i: 0.5, 1, 1.0, paths, 0, 0.5)
    with pytest.raises(PreconditionError):
        simulate_chain(model, 1.0, paths, 0)
    problem = build_message_problem(model, lambda t, i: 0.5, 1, TimeGrid.uniform(1.0, 11))
    with pytest.raises(PreconditionError):
        solve_chain_bsde(problem, "picard", TimeGrid.uniform(1.0, 11), paths)


def test_simulated_batch_feeds_the_per_path_view():
    sim = simulate_chain(three_state_varying(), 2.0, 300, seed=31)
    assert isinstance(sim, ChainPaths) and len(sim) == 300
    assert sum(p.jump_times.size for p in sim) == sim.time.size > 0
    nodes = np.linspace(0.0, 2.0, 9)
    S = sim.states_at(nodes)
    for k, p in enumerate(sim):
        assert np.array_equal(S[k], p.state_at(nodes))


# a valid batch: path 0 goes 0 -> 1 -> 0, path 1 goes 1 -> 0; times may fall
# back across a path boundary
_VALID = {"initial": [0, 1], "path": [0, 0, 1], "time": [0.2, 0.4, 0.1], "state": [1, 0, 0]}


@pytest.mark.parametrize(
    "defect, message",
    [
        ({"path": [0, 1, 0]}, "sorted by path index"),
        ({"time": [0.4, 0.4, 0.1]}, "strictly increasing within a path"),
        ({"time": [0.4, 0.2, 0.1]}, "strictly increasing within a path"),
        ({"state": [1, 1, 0]}, "other than the one it leaves"),
        ({"state": [1, 0, 1]}, "other than the one it leaves"),
        ({"path": [0, 0, 2]}, "out of range"),
        ({"path": [-1, 0, 1]}, "out of range"),
        ({"state": [1, 0]}, "one index, time and state per jump"),
    ],
)
def test_chain_paths_rejects_injected_defect(defect, message):
    ChainPaths(**_VALID)
    with pytest.raises(InvariantError, match=message):
        ChainPaths(**{**_VALID, **defect})


# ---------------------------------------------------------------------------
# generator invariants, checked on every batch
# ---------------------------------------------------------------------------


def test_kernel_rejects_negative_off_diagonal_rate():
    # columns still sum to zero and exit rates stay inside the bound; the
    # defect appears only after t = 1
    early = np.array([[-1.0, 0.5, 0.5], [0.5, -1.0, 0.5], [0.5, 0.5, -1.0]])
    late = np.array([[-0.5, 0.5, 0.5], [1.0, -1.0, 0.5], [-0.5, 0.5, -1.0]])

    def rates(t):
        return np.where(per_time(t) < 1.0, early, late)

    model = MarkovChainModel(3, rates, 0, rate_bound=1.0)
    simulate_chain(model, 0.9, 100, seed=0)
    with pytest.raises(InvariantError, match="negative off-diagonal rate at t="):
        simulate_chain(model, 3.0, 100, seed=0)


def test_kernel_rejects_nonzero_column_sum():
    A = np.array([[-1.0, 1.0], [0.5, -1.0]])  # column 0 sums to -0.5
    model = MarkovChainModel(2, lambda t: A, 0, rate_bound=1.0)
    with pytest.raises(InvariantError, match="columns do not sum to zero"):
        simulate_chain(model, 3.0, 100, seed=0)


@pytest.mark.parametrize(
    "defect, message",
    [
        (np.array([[0.0, -1.1], [0.0, 1.1]]), "negative off-diagonal rate"),
        (np.array([[0.0, 0.0], [0.1, 0.0]]), "columns do not sum to zero"),
        (np.array([[np.nan, 0.0], [0.0, 0.0]]), "rate matrix is not finite"),
    ],
    ids=["negative", "column-sum", "not-finite"],
)
def test_rate_check_reports_the_first_bad_matrix(defect, message):
    # two bad matrices in one batch, the later one worse: the earlier time is reported
    A = np.array([[-1.0, 1.0], [1.0, -1.0]])
    bad = {0.5: A + defect, 1.5: A + 50.0 * defect}

    def rates(t):
        t = np.asarray(t)
        out = np.array(np.broadcast_to(A, t.shape + A.shape))
        for s, B in bad.items():
            out[t == s] = B
        return out

    model = MarkovChainModel(2, rates, 0, rate_bound=1.0)
    model.validate([0.0, 1.0, 2.0])
    with pytest.raises(InvariantError, match=rf"{message} at t=0\.5$"):
        model.validate([0.0, 0.5, 1.0, 1.5, 2.0])


def test_killed_chain_rejects_intensity_above_bound():
    # exit 1 plus kill 2 against a thinning bound of 1 + 1
    with pytest.raises(InvariantError, match="exceeds the thinning bound"):
        simulate_killed_chain(line(), lambda t, i: 2.0, 1, 5.0, 100, seed=0, loss_bound=1.0)


# magnitudes far apart, so that adding the rows in another order changes the bits
_ORDER_SENSITIVE = st.one_of(
    st.floats(-1e16, 1e16), st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 3e-17])
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 12).flatmap(
        lambda N: arrays(float, st.tuples(st.integers(1, 40), st.just(N), st.just(N)), elements=_ORDER_SENSITIVE)
    )
)
def test_column_sums_by_row_adds_are_bit_equal_to_the_reduction(A):
    assert _column_sums(A).tobytes() == A.sum(axis=1).tobytes()


_DEFECTS = {
    "not-finite": "rate matrix is not finite",
    "negative": "negative off-diagonal rate",
    "column-sum": "columns do not sum to zero",
    "bound": "exceeds the thinning bound",
}


@st.composite
def defective_batches(draw, kind):
    # a stack of valid generators with the given defect and up to two others
    # injected at random matrices; column-sum defects sit near the 1e-9 limit
    N, m = draw(st.integers(2, 5)), draw(st.integers(1, 30))
    A = draw(arrays(float, (m, N, N), elements=st.floats(0.0, 3.0)))
    diag = np.arange(N)
    A[:, diag, diag] = 0.0
    A[:, diag, diag] = -A.sum(axis=1)
    t = np.sort(draw(arrays(float, m, elements=st.floats(0.0, 10.0))))
    bound = float(np.max(-A[:, diag, diag])) * 1.5 + 0.1
    kinds = draw(st.lists(st.sampled_from(sorted(_DEFECTS)), max_size=2)) + [kind]  # last, so it stays
    for k in kinds:
        i, r, c = draw(st.integers(0, m - 1)), draw(st.integers(0, N - 1)), draw(st.integers(0, N - 1))
        if k == "not-finite":
            A[i, r, c] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        elif k == "negative":
            c = (r + 1) % N
            A[i, r, c] = -draw(st.floats(1e-11, 2.0))
        elif k == "column-sum":
            A[i, r, c] += draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(5e-10, 2e-9))
        else:
            exit_rate = draw(st.floats(bound * 1.001, bound * 3.0))
            A[i, :, c] = 0.0
            A[i, (c + 1) % N, c], A[i, c, c] = exit_rate, -exit_rate
    total = np.max(-np.diagonal(A, axis1=1, axis2=2), axis=1)
    return A, t, total, bound


def _failure(check, batch):
    try:
        check(*batch)
    except InvariantError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("kind", sorted(_DEFECTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rate_check_fails_as_the_reduction_reference_does(kind, data):
    # the same message at the same t as the check that sums with A.sum(axis=1)
    batch = data.draw(defective_batches(kind))
    got = _failure(_check_rate_batch, batch)
    assert got == _failure(reference_check_rate_batch, batch)
    if kind != "column-sum":  # a sum defect may cancel or stay under 1e-9
        assert got is not None
