import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcbsde.errors import DomainError, InvariantError, PreconditionError, StructuralError
from tcbsde.timechange import (
    LINEAR,
    CoefficientProcesses,
    IncreasingProcess,
    SampledPath,
    TimeChangeMap,
    TimeGrid,
    build_clock_from_density,
    build_phi,
    integrate_stieltjes,
    interp_columns,
    substitution_check,
    terminal_clock,
    terminal_clock_derivative,
    terminal_clock_inverse,
    time_change_path,
)


def default_tolerance(grid: TimeGrid) -> float:
    """Interpolation/round-trip slack tied to the discretization, not a magic number."""
    return 10.0 * grid.max_step


def identity_process(grid):
    return IncreasingProcess.identity(grid)


def const_path(grid, c):
    return SampledPath(grid, np.full(grid.n_nodes, float(c)), LINEAR)


# ---------------------------------------------------------------------------
# grids and paths
# ---------------------------------------------------------------------------


def test_grid_invariants():
    with pytest.raises(InvariantError):
        TimeGrid(np.array([0.0]))
    with pytest.raises(InvariantError):
        TimeGrid(np.array([0.1, 0.2]))
    with pytest.raises(InvariantError):
        TimeGrid(np.array([0.0, 0.5, 0.5]))
    g = TimeGrid.uniform(1.0, 11)
    assert g.n_nodes == 11 and g.t_end == 1.0 and abs(g.max_step - 0.1) < 1e-15


@pytest.mark.parametrize("nodes", [[0.0, 1.0, math.inf], [0.0, math.nan, 1.0], [math.nan, 1.0, 2.0]])
def test_grid_rejects_a_non_finite_node(nodes):
    # an infinite last node passes the start and the order checks, and a
    # path on it reads a zero slope; finiteness is checked before the start
    with pytest.raises(InvariantError, match="must be finite"):
        TimeGrid(np.array(nodes))


@pytest.mark.parametrize("t_end", [math.inf, -math.inf, math.nan])
def test_uniform_grid_rejects_a_non_finite_end(t_end):
    with pytest.raises(InvariantError, match="must be finite"):
        TimeGrid.uniform(t_end, 3)


def test_path_evaluation_rules():
    g = TimeGrid(np.array([0.0, 1.0, 2.0]))
    lin = SampledPath(g, np.array([0.0, 2.0, 6.0]), LINEAR)
    assert lin.at(0.5) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        lin.at(2.5)
    for t in (math.nan, math.inf, -math.inf, np.float64(math.nan), -2e-12, 2.0 + 2e-12, 3):
        with pytest.raises(DomainError):
            lin.at(t)


@settings(max_examples=300, deadline=None)
@given(
    steps=st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=20),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_scalar_time_matches_array_path(steps, seed, data):
    # the scalar branch of SampledPath.at against the array path as reference:
    # same bits, same return type, for interior times, node hits, both
    # 1e-12 edges, and float / int / np.float64 inputs
    grid = TimeGrid(np.concatenate([[0.0], np.cumsum(steps)]))
    path = SampledPath(grid, np.random.default_rng(seed).normal(size=grid.n_nodes), LINEAR)
    t_end = grid.t_end
    t = data.draw(
        st.one_of(
            st.floats(0.0, t_end),
            st.sampled_from([float(x) for x in grid.nodes]),
            st.sampled_from([-1e-12, t_end + 1e-12]),
            st.integers(0, int(t_end)),
        )
    )
    casts = (int, np.int64, np.float64) if isinstance(t, int) else (float, np.float64)
    for cast in casts:
        got = path.at(cast(t))
        ref = path.at(np.array([t], dtype=float))[0]
        assert type(got) is type(ref)
        assert np.shape(got) == np.shape(ref)
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


def reference_at(nodes, values, t):
    """The slow lookup: NumPy on the clamped time."""
    tc = np.clip(t, nodes[0], nodes[-1])
    return np.interp(tc, nodes, values)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@st.composite
def scalar_paths(draw):
    n = draw(st.integers(2, 40))
    if draw(st.booleans()):
        nodes = np.linspace(0.0, draw(st.floats(1e-3, 1e3)), n)
    else:
        steps = draw(st.lists(st.floats(1e-6, 10.0), min_size=n - 1, max_size=n - 1))
        nodes = np.concatenate([[0.0], np.cumsum(steps)])
    # repeated values make flat steps; huge ones overflow the slope, and
    # infinities send np.interp to its NaN fallback
    value = st.one_of(
        st.floats(-1e3, 1e3),
        st.floats(-1e308, 1e308),
        st.sampled_from([0.0, -0.0, 1.0, math.inf, -math.inf]),
    )
    values = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    return TimeGrid(nodes), values


@settings(max_examples=300, deadline=None)
@given(path=scalar_paths(), data=st.data())
def test_scalar_lookup_matches_numpy(path, data):
    # the cached-list lookup against np.interp, bit for bit
    grid, values = path
    sampled = SampledPath(grid, values, LINEAR)
    nodes, t_end = grid.nodes, grid.t_end
    times = [float(x) for x in nodes] + [-1e-12, -5e-13, t_end + 5e-13, t_end + 1e-12]
    times += data.draw(st.lists(st.floats(0.0, t_end), min_size=1, max_size=20))
    for t in times:
        got = sampled.at(t)
        assert type(got) is np.float64
        assert same_bits(got, reference_at(nodes, values, t))
        assert same_bits(got, sampled.at(np.array([t]))[0])


def test_scalar_lookup_keeps_the_nan_fallbacks():
    # an infinite step gives NaN from the left end, an infinite flat step NaN
    # from both, and an overflowing slope stays infinite; np.interp decides each
    inf = math.inf
    grid = TimeGrid(np.arange(8.0))
    values = np.array([1.0, inf, inf, 1.0, -1e308, 1e308, -inf, -inf])
    path = SampledPath(grid, values, LINEAR)
    for t in np.linspace(0.0, 7.0, 141):
        assert same_bits(path.at(float(t)), np.interp(t, grid.nodes, values))


@pytest.mark.parametrize("rule", [LINEAR])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -2e-12, -1.0, 2.0 + 2e-12, 5.0])
def test_scalar_lookup_errors_match_array_path(rule, t):
    path = SampledPath(TimeGrid(np.array([0.0, 0.5, 2.0])), np.array([1.0, 3.0, 2.0]), rule)
    with pytest.raises(DomainError) as scalar:
        path.at(t)
    with pytest.raises(DomainError) as array:
        path.at(np.array([t]))
    assert str(scalar.value) == str(array.value)


def test_scalar_lookup_never_reads_a_stale_table():
    grid = TimeGrid(np.array([0.0, 1.0, 2.0]))
    path = SampledPath(grid, np.array([0.0, 2.0, 6.0]), LINEAR)
    assert path.at(1.5) == 4.0  # fills the table
    assert path.with_values(np.array([0.0, -2.0, -6.0])).at(1.5) == -4.0
    assert replace(path, values=np.array([1.0, 1.0, 3.0])).at(1.5) == 2.0
    assert replace(path, grid=TimeGrid(np.array([0.0, 1.5, 2.0]))).at(1.5) == 2.0
    assert path.at(1.5) == 4.0


@pytest.mark.parametrize("values", [1.0, np.zeros((3, 2)), np.zeros(4), np.zeros(2), np.zeros((1, 3))])
def test_path_needs_one_value_per_node(values):
    # a scalar has no first axis to measure, and an (n, 2) array has the
    # grid's length along it
    with pytest.raises(InvariantError, match="need exactly one value per grid node"):
        SampledPath(TimeGrid(np.array([0.0, 1.0, 2.0])), values, LINEAR)


def _read_or_error(read, u):
    try:
        return read(u)
    except DomainError as exc:
        return str(exc)


@st.composite
def clock_densities(draw):
    """A random clock density, linear between nodes: 2 to 31 nodes, values in [1, 50]."""
    steps = draw(st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=30))
    grid = TimeGrid(np.concatenate([[0.0], np.cumsum(steps)]))
    values = draw(st.lists(st.floats(1.0, 50.0), min_size=grid.n_nodes, max_size=grid.n_nodes))
    return SampledPath(grid, np.array(values), LINEAR)


def density_clock(alpha_sq, target=None):
    return build_clock_from_density(alpha_sq, 1.0, target=target)


@settings(max_examples=200, deadline=None)
@given(
    alpha_sq=clock_densities(),
    target=st.sampled_from(["image", 0.5, 1.0, 1.5]),
    m=st.integers(2, 40),
    data=st.data(),
)
def test_inverse_density_read_is_one_read_for_a_time_or_an_array(alpha_sq, target, m, data):
    # one time gives two Python floats and an array of times two arrays of
    # its shape, with the same bits and the same DomainError at every clock
    # node, inside every interval, at both ends, in the 1e-12 slack on
    # either side, beyond it and at non-finite times; inverse_at and
    # derivative_at are the same read.  The inverse's values at the target
    # nodes are the array read's, and +inf at a node past the clock's top
    phi = density_clock(alpha_sq).forward.values
    end = float(phi[-1])
    tgt = target if target == "image" else TimeGrid.uniform(target * end, m)
    clock = density_clock(alpha_sq, tgt)
    us = phi.tolist() + (0.5 * (phi[:-1] + phi[1:])).tolist()
    us += [-1e-12, -5e-13, end + 5e-13, end + 1e-12, -2e-12, end + 2e-12, 2.0 * end + 1.0]
    us += [math.nan, math.inf, -math.inf]
    us += data.draw(st.lists(st.floats(0.0, end), min_size=1, max_size=10))

    good = []
    for u in us:
        ref = _read_or_error(clock.inverse_density_at, np.array([u]))
        for cast in (float, np.float64):
            got = _read_or_error(clock.inverse_density_at, cast(u))
            if isinstance(ref, str):
                assert got == ref
                continue
            assert type(got) is tuple and [type(x) for x in got] == [float, float]
            assert same_bits(got[0], ref[0]) and same_bits(got[1], ref[1])
        if not isinstance(ref, str):
            good.append(u)
    assert _read_or_error(clock.inverse_density_at, 2.0 * end + 1.0) == (
        f"evaluation outside grid range [0.0, {end}]"
    )

    # one bad time among the good ones, anywhere, gives the DomainError of its own read
    times = np.array(good)
    got = clock.inverse_density_at(times)
    assert [type(x) for x in got] == [np.ndarray, np.ndarray]
    assert got[0].shape == got[1].shape == times.shape
    ones = [clock.inverse_density_at(u) for u in good]
    assert same_bits(got[0], [s for s, _ in ones]) and same_bits(got[1], [d for _, d in ones])
    assert same_bits(clock.inverse_at(times), got[0]) and same_bits(clock.derivative_at(times), 1.0 / got[1])
    for u in us:
        one = _read_or_error(clock.inverse_density_at, u)
        if isinstance(one, str):
            with_bad = np.insert(times, data.draw(st.integers(0, times.size)), u)
            assert _read_or_error(clock.inverse_density_at, with_bad) == one

    levels = clock.target_grid.nodes
    reached = levels <= end + 1e-12
    assert same_bits(clock.inverse.values[reached], clock.inverse_density_at(levels[reached])[0])
    assert np.all(clock.inverse.values[~reached] == math.inf)


@settings(max_examples=200, deadline=None)
@given(alpha_sq=clock_densities(), data=st.data())
def test_exact_clock_inverts_its_forward_and_differentiates(alpha_sq, data):
    # forward_at(inverse_at(u)) is u to rounding anywhere in the clock range,
    # and bit for bit at the clock's nodes, where the inverse is the source
    # node itself.  derivative_at is the slope of inverse_at: a centred
    # difference across a ten-thousandth of an interval's clock increment,
    # at a point inside it, matches it to the difference's own error
    clock = density_clock(alpha_sq)
    nodes, a2, phi = alpha_sq.grid.nodes, alpha_sq.values, clock.forward.values
    end = float(phi[-1])
    assert same_bits(clock.inverse_at(phi), nodes)
    assert same_bits(clock.forward_at(nodes), phi)
    us = np.array(data.draw(st.lists(st.floats(0.0, end), min_size=1, max_size=20)))
    rounding = 1e-14 * (end + float(np.max(a2)) * float(nodes[-1]))
    assert np.max(np.abs(clock.forward_at(clock.inverse_at(us)) - us)) <= rounding

    theta = data.draw(st.floats(0.1, 0.9))
    mid = phi[:-1] + theta * np.diff(phi)
    delta = 1e-4 * np.diff(phi)
    centred = (clock.inverse_at(mid + delta) - clock.inverse_at(mid - delta)) / (2.0 * delta)
    assert np.allclose(centred, clock.derivative_at(mid), rtol=1e-4, atol=0.0)


def test_increasing_process_floor():
    g = TimeGrid.uniform(1.0, 6)
    IncreasingProcess(SampledPath(g, np.array([0.0, 0.3, 0.6, 0.9, 1.2, 1.5]), LINEAR), eps=1.0)
    with pytest.raises(InvariantError):
        IncreasingProcess(SampledPath(g, np.array([0.0, 0.1, 0.05, 0.2, 0.3, 0.4]), LINEAR))
    with pytest.raises(InvariantError):
        # slope 0.5 < declared floor 1.0
        IncreasingProcess(SampledPath(g, 0.5 * g.nodes, LINEAR), eps=1.0)


@pytest.mark.parametrize("values", [[0.0, math.nan, 1.0, 2.0], [0.0, 0.5, 1.0, math.inf]])
def test_increasing_process_rejects_non_finite_values(values):
    # every comparison with NaN is false, so a NaN passes the start, the
    # monotonicity and the floor checks unless finiteness is checked first
    g = TimeGrid.uniform(1.0, 4)
    with pytest.raises(InvariantError, match="finite"):
        IncreasingProcess(SampledPath(g, np.array(values), LINEAR))


def test_sampled_path_interpolates_linearly_only():
    with pytest.raises(InvariantError, match="interpolation rule"):
        SampledPath(TimeGrid.uniform(1.0, 3), np.zeros(3), "previous")


# ---------------------------------------------------------------------------
# interp_columns
# ---------------------------------------------------------------------------


def per_column_interp(nodes, values, times, axis):
    """``np.interp`` one column at a time, laid out C-ordered.

    ``times`` is 1-D, shared by every column, or has one row of times per
    column along ``axis`` and broadcasts against ``values`` off it.
    """
    moved = np.moveaxis(values, axis, -1)
    rows = np.moveaxis(times, axis, -1) if times.ndim > 1 else times
    shape = np.broadcast_shapes(moved.shape[:-1], rows.shape[:-1])
    moved = np.broadcast_to(moved, shape + moved.shape[-1:])
    rows = np.broadcast_to(rows, shape + rows.shape[-1:])
    out = np.empty(rows.shape)
    for idx in np.ndindex(shape):
        out[idx] = np.interp(rows[idx], nodes, moved[idx])
    return np.ascontiguousarray(np.moveaxis(out, -1, axis))


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 12),
    layout=st.sampled_from(["paths", "paths-dim", "states", "oracle"]),
    spacing=st.sampled_from(["drawn", "even", "cubed"]),
    data=st.data(),
)
def test_interp_columns_matches_per_column_interp(n, layout, spacing, data):
    # the one kernel against np.interp column by column, in bytes and in
    # strides: with shared times on (P, n) and (P, n, d) along the node axis
    # 1 as the Wiener mapper reads, and on (n, N) along axis 0 as the chain
    # mapper reads; with per-column times on the oracle's stacked fields
    # (fields, nodes, states) along axis 2, read at (1, nodes, P) states.
    # On the cubed grid the search's even-grid guess misses most times.
    if spacing == "drawn":
        steps = data.draw(st.lists(st.floats(1e-3, 2.0), min_size=n - 1, max_size=n - 1))
        nodes = np.concatenate([[0.0], np.cumsum(steps)])
    else:
        end = data.draw(st.floats(1e-3, 1e3))
        nodes = end * np.linspace(0.0, 1.0, n) ** (1 if spacing == "even" else 3)
    shape, axis = {
        "paths": ((3, n), 1), "paths-dim": ((3, n, 2), 1), "states": ((n, 4), 0), "oracle": ((2, 3, n), 2)
    }[layout]
    value = st.one_of(
        st.floats(-1e3, 1e3),
        st.floats(-1e308, 1e308),
        st.sampled_from([0.0, -0.0, 1.0, math.inf, -math.inf, math.nan]),
    )
    values = np.array(data.draw(st.lists(value, min_size=math.prod(shape), max_size=math.prod(shape))))
    values = values.reshape(shape)
    j = data.draw(st.integers(0, n - 2))
    if data.draw(st.booleans()):  # equal neighbours: a flat step
        np.moveaxis(values, axis, 0)[j + 1] = np.moveaxis(values, axis, 0)[j]
    end = float(nodes[-1])
    if layout == "oracle":
        # every node, its floating-point neighbours, NaN and the infinities
        special = np.concatenate(
            [nodes, np.nextafter(nodes, -math.inf), np.nextafter(nodes, math.inf), [math.nan, math.inf, -math.inf]]
        )
        time = st.one_of(st.sampled_from(special.tolist()), st.floats(-0.5 * end, 1.5 * end))
        P = data.draw(st.integers(1, 6))
        times = np.array(data.draw(st.lists(time, min_size=3 * P, max_size=3 * P))).reshape(1, 3, P)
    else:
        times = [float(x) for x in nodes] + [-1e-12, -5e-13, end + 5e-13, end + 1e-12]
        times += data.draw(st.lists(st.floats(0.0, end), max_size=10))
        # at least two times, as on any grid, so that every stride is fixed by the layout
        times = np.sort(np.array(data.draw(st.permutations(times))[: data.draw(st.integers(2, len(times)))]))
    got = interp_columns(nodes, values, times, axis=axis)
    want = per_column_interp(nodes, values, times, axis)
    assert got.shape == want.shape and got.strides == want.strides
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 10),
    layout=st.sampled_from([((-1,), 0), ((3, -1), 1), ((3, -1, 2), 1), ((-1, 4), 0), ((2, 3, -1), 2)]),
    data=st.data(),
)
def test_interp_columns_reads_shared_times_as_the_same_per_column_times(n, layout, data):
    # one gather serves 1-D times shared by every column and per-column
    # times: the same times given to each column give the same bytes
    shape, axis = layout
    shape = tuple(n if size == -1 else size for size in shape)
    steps = data.draw(st.lists(st.floats(1e-3, 2.0), min_size=n - 1, max_size=n - 1))
    nodes = np.concatenate([[0.0], np.cumsum(steps)])
    value = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))
    values = np.array(data.draw(st.lists(value, min_size=math.prod(shape), max_size=math.prod(shape))))
    values = values.reshape(shape)
    end = float(nodes[-1])
    special = nodes.tolist() + [math.nan, math.inf, -math.inf]
    time = st.one_of(st.sampled_from(special), st.floats(-0.5 * end, 1.5 * end))
    times = np.array(data.draw(st.lists(time, min_size=1, max_size=8)))
    along = [-1 if a == axis else 1 for a in range(values.ndim)]
    per_column = np.broadcast_to(times.reshape(along), shape[:axis] + times.shape + shape[axis + 1 :])
    shared = interp_columns(nodes, values, times, axis=axis)
    got = interp_columns(nodes, values, per_column, axis=axis)
    assert got.shape == shared.shape and got.strides == shared.strides
    assert got.tobytes() == shared.tobytes()


# ---------------------------------------------------------------------------
# integrate_stieltjes
# ---------------------------------------------------------------------------


def test_integrate_identity_integrand():
    g = TimeGrid.uniform(1.0, 11)
    out = integrate_stieltjes(const_path(g, 1.0))
    assert out.values[-1] == pytest.approx(1.0, abs=0.0)


def test_integrate_zero_integrand():
    g = TimeGrid.uniform(2.0, 21)
    out = integrate_stieltjes(const_path(g, 0.0))
    assert np.all(out.values == 0.0)


def test_integrate_linear_integrand_against_antiderivative():
    # oracle: d/dt (t^2 / 2) = t, so the integral at 1 is 0.5
    g = TimeGrid.uniform(1.0, 1001)
    h = SampledPath(g, g.nodes.copy(), LINEAR)
    out = integrate_stieltjes(h)
    assert abs(out.values[-1] - 0.5) <= 1e-12


# ---------------------------------------------------------------------------
# the clock's inverse
# ---------------------------------------------------------------------------


def test_inverse_linear_clock():
    g = TimeGrid.uniform(1.0, 101)
    clock = density_clock(const_path(g, 2.0), TimeGrid(np.array([0.0, 1.0, 1.5])))
    assert clock.inverse_at(1.0) == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(clock.inverse.values, [0.0, 0.5, 0.75], rtol=0.0, atol=1e-12)


def test_inverse_quadratic_clock():
    # oracle: t + t^2 = 2  =>  t = (-1 + 3) / 2 = 1, exact on 5 nodes, as the
    # clock of the density 1 + 2t is quadratic between them
    g = TimeGrid.uniform(2.0, 5)
    clock = density_clock(SampledPath(g, 1.0 + 2.0 * g.nodes, LINEAR), TimeGrid(np.array([0.0, 2.0])))
    assert clock.forward.values[-1] == pytest.approx(6.0, abs=1e-14)
    assert clock.inverse.values[-1] == pytest.approx(1.0, abs=1e-14)
    assert clock.inverse_at(0.75) == pytest.approx(0.5, abs=1e-14)


def test_inverse_overflow_sentinel():
    # a target node past the clock's top reads +inf, the infimum of an empty
    # set, in the inverse's values; a read there is outside the clock
    g = TimeGrid.uniform(1.0, 11)
    clock = density_clock(const_path(g, 1.0), TimeGrid(np.array([0.0, 0.5, 2.0])))
    assert math.isinf(clock.inverse.values[-1])
    assert clock.inverse.values[1] == pytest.approx(0.5)
    with pytest.raises(DomainError, match="outside grid range"):
        clock.inverse_at(2.0)


@settings(max_examples=50, deadline=None)
@given(
    density=st.lists(st.floats(0.25, 4.0), min_size=2, max_size=30),
    levels=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=10),
)
def test_inverse_nondecreasing_property(density, levels):
    g = TimeGrid(np.concatenate([[0.0], np.cumsum(np.full(len(density) - 1, 0.25))]))
    alpha_sq = SampledPath(g, np.array(density), LINEAR)
    levels = sorted({0.0} | {lv for lv in levels if lv > 0.0} | {21.0})
    clock = build_clock_from_density(alpha_sq, 0.25, target=TimeGrid(np.array(levels)))
    finite = clock.inverse.values[np.isfinite(clock.inverse.values)]
    assert np.all(np.diff(finite) >= -1e-12)


# ---------------------------------------------------------------------------
# build_phi
# ---------------------------------------------------------------------------


def make_coeffs(grid, r, u, eps=0.5):
    return CoefficientProcesses.lipschitz(
        SampledPath(grid, np.broadcast_to(np.asarray(r, dtype=float), (grid.n_nodes,)).copy(), LINEAR),
        SampledPath(grid, np.broadcast_to(np.asarray(u, dtype=float), (grid.n_nodes,)).copy(), LINEAR),
        eps=eps,
    )


def test_build_phi_identity_clock():
    g = TimeGrid.uniform(1.0, 101)
    clock = build_phi(make_coeffs(g, 1.0, 0.0, eps=0.9), identity_process(g), target=g)
    assert np.allclose(clock.forward.values, g.nodes)
    assert np.allclose(clock.inverse.values, g.nodes, atol=1e-12)
    assert np.allclose(clock.derivative_at(g.nodes), 1.0)


def test_build_phi_constant_four():
    g = TimeGrid.uniform(1.0, 201)
    clock = build_phi(make_coeffs(g, 4.0, 0.0, eps=1.0), identity_process(g))
    assert clock.forward.values[-1] == pytest.approx(4.0, rel=1e-12)
    assert clock.inverse_at(2.0) == pytest.approx(0.5, abs=1e-9)
    assert clock.derivative_at(1.0) == pytest.approx(0.25, rel=1e-9)


def test_build_phi_quadratic_inverse():
    # oracle: phi(t) = t + t^2  =>  inverse(s) = (-1 + sqrt(1 + 4 s)) / 2
    g = TimeGrid.uniform(2.0, 2001)
    coeffs = make_coeffs(g, 1.0 + 2.0 * g.nodes, 0.0, eps=0.5)
    clock = build_phi(coeffs, identity_process(g))
    tol = default_tolerance(g)
    for s in (0.0, 1.0, 2.0):
        want = (-1.0 + math.sqrt(1.0 + 4.0 * s)) / 2.0
        assert clock.inverse_at(s) == pytest.approx(want, abs=tol)


def test_build_phi_derivative_reciprocal_invariant():
    g = TimeGrid.uniform(1.5, 501)
    coeffs = make_coeffs(g, 1.0 + g.nodes**2, 0.5, eps=0.5)
    clock = build_phi(coeffs, identity_process(g))
    s = clock.target_grid.nodes[np.isfinite(clock.inverse.values)]
    prod = clock.derivative_at(s) * clock.density_at(clock.inverse_at(s))
    assert np.allclose(prod, 1.0, atol=1e-12)


COEFFICIENT_BUILDS = {
    "lipschitz": lambda p: CoefficientProcesses.lipschitz(p["r"], p["u"], eps=0.5),
    "monotone": lambda p: CoefficientProcesses.monotone(p["r"], p["l"], p["u"], eps=0.5),
    "fields": lambda p: CoefficientProcesses(r=p["r"], u=p["u"], alpha_sq=p["alpha_sq"], eps=0.5),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build,field",
    [("lipschitz", "r"), ("lipschitz", "u"), ("monotone", "r"), ("monotone", "u"), ("monotone", "l"),
     ("fields", "alpha_sq")],
)
def test_coefficients_reject_a_non_finite_node(build, field, bad):
    # every comparison with NaN is false, so a NaN node passes the floor and
    # the dominance checks unless finiteness is checked first
    g = TimeGrid.uniform(1.0, 11)
    paths = {name: const_path(g, 0.5) for name in ("r", "u", "l", "alpha_sq")}
    paths[field] = paths[field].with_values(np.where(np.arange(11) == 4, bad, 0.5))
    with pytest.raises(InvariantError, match="must be finite"):
        COEFFICIENT_BUILDS[build](paths)


def test_build_phi_rejects_low_density():
    g = TimeGrid.uniform(1.0, 11)
    r = SampledPath(g, np.full(g.n_nodes, 0.1), LINEAR)
    u = SampledPath(g, np.zeros(g.n_nodes), LINEAR)
    with pytest.raises(InvariantError):
        CoefficientProcesses(r=r, u=u, alpha_sq=r, eps=0.5)


def test_clock_build_rejects_a_density_below_its_floor_or_another_integrator():
    # the closed form needs a positive density, and build_phi, the one build
    # that takes an integrator, integrates against dt on the coefficients' grid
    g = TimeGrid.uniform(1.0, 11)
    with pytest.raises(InvariantError, match="eps floor"):
        build_clock_from_density(SampledPath(g, 1.0 - g.nodes, LINEAR), 0.5)
    with pytest.raises(InvariantError, match="eps floor"):
        build_clock_from_density(const_path(g, 1.0), 0.0)
    coeffs = make_coeffs(g, 1.0, 0.0)
    doubled = IncreasingProcess(SampledPath(g, 2.0 * g.nodes, LINEAR))
    with pytest.raises(PreconditionError, match="identity"):
        build_phi(coeffs, doubled)
    with pytest.raises(StructuralError, match="different grids"):
        build_phi(coeffs, identity_process(TimeGrid.uniform(1.0, 21)))


@pytest.mark.parametrize(
    "t_end,values",
    [(1.0, [1.0, 2.0, math.nan, 1.0]), (1.0, [1.0, math.inf, 1.0, 1.0]), (2.0, [1e308, 1e308, 1e308])],
    ids=["nan", "inf", "overflow"],
)
@pytest.mark.parametrize("target", [None, "image"])
def test_clock_build_rejects_a_clock_that_is_not_finite(t_end, values, target):
    # a NaN passes the floor check, as every comparison with NaN is false,
    # and the trapezoid sums of a finite density can overflow: the clock
    # itself is checked after the sums, before any target grid is built
    g = TimeGrid.uniform(t_end, len(values))
    with pytest.raises(InvariantError, match="the clock must be finite"):
        build_clock_from_density(SampledPath(g, np.array(values), LINEAR), 1.0, target=target)


@st.composite
def floored_densities(draw):
    """A floor ``eps`` and a density linear between nodes from ``eps`` to ``20 eps``: 2 to 31 nodes.

    The steps, 0.01 to 1, keep each step's clock increment above the
    rounding of the clock's running sum by far more than ``1e-9``.
    """
    eps = draw(st.floats(1e-3, 10.0))
    steps = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=30))
    grid = TimeGrid(np.concatenate([[0.0], np.cumsum(steps)]))
    factors = draw(st.lists(st.floats(1.0, 20.0), min_size=grid.n_nodes, max_size=grid.n_nodes))
    return SampledPath(grid, eps * np.array(factors), LINEAR), eps


@settings(max_examples=300, deadline=None)
@given(density_and_floor=floored_densities(), target=st.sampled_from([None, "image"]))
def test_clock_forward_starts_at_zero_and_rises_by_the_floor(density_and_floor, target):
    # the clock's forward is a plain path: the density's floor alone makes
    # it start at 0, stay finite and rise by at least eps * dt on each step
    alpha_sq, eps = density_and_floor
    forward = build_clock_from_density(alpha_sq, eps, target=target).forward
    assert type(forward) is SampledPath and forward.grid is alpha_sq.grid
    assert forward.values[0] == 0.0 and np.all(np.isfinite(forward.values))
    assert np.all(np.diff(forward.values) >= eps * alpha_sq.grid.steps * (1.0 - 1e-9))


def test_clock_builds_where_its_running_sum_rounds_a_step_below_the_floor():
    # the last step adds eps * dt = 1.5625e-8 to a clock of about 0.5, whose
    # spacing is 1.1e-16, so its increment reads 2.5e-9 short of eps * dt in
    # relative terms.  A floor re-check of the sums rejected this clock; the
    # density's own floor check is the one that holds
    g = TimeGrid(np.array([0.0, 1.0, 1.015625]))
    forward = build_clock_from_density(SampledPath(g, np.array([1.0, 1e-6, 1e-6]), LINEAR), 1e-6).forward
    assert np.all(np.diff(forward.values) >= 1e-6 * g.steps - np.spacing(forward.values[1:]))
    assert np.diff(forward.values)[-1] < 1e-6 * g.steps[-1] * (1.0 - 1e-9)


@st.composite
def widely_floored_densities(draw):
    """A floor ``eps`` and a density from ``eps`` to ``1e6 eps`` on steps from 1e-6 to 1: 2 to 31 nodes.

    A steep fall over a short last step makes rounding push the closed
    form's discriminant below 0 at the clock's top, and a step's increment
    can read short of ``eps * dt`` by the running sum's spacing.
    """
    eps = draw(st.floats(1e-6, 10.0))
    steps = draw(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=30))
    grid = TimeGrid(np.concatenate([[0.0], np.cumsum(steps)]))
    factors = draw(st.lists(st.floats(1.0, 1e6), min_size=grid.n_nodes, max_size=grid.n_nodes))
    return SampledPath(grid, eps * np.array(factors), LINEAR), eps


@settings(max_examples=300, deadline=None)
@given(density_and_floor=widely_floored_densities(), target=st.sampled_from([None, "image"]))
@example(
    density_and_floor=(
        SampledPath(TimeGrid(np.array([0.0, 1.0, 1.000001])), np.array([0.5, 1.0, 1e-6]), LINEAR),
        1e-6,
    ),
    target=None,
)
def test_clock_builds_over_a_wide_range_without_a_warning(density_and_floor, target):
    # a RuntimeWarning is an error here: the clock's array read must not
    # warn at the levels past its top that its edge rule overwrites
    alpha_sq, eps = density_and_floor
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        clock = build_clock_from_density(alpha_sq, eps, target=target)
    phi = clock.forward.values
    assert phi[0] == 0.0 and np.all(np.isfinite(phi))
    assert np.all(np.diff(phi) >= eps * alpha_sq.grid.steps * (1.0 - 1e-9) - np.spacing(phi[1:]))
    reached = np.isfinite(clock.inverse.values)
    assert reached.any() and np.all(np.isfinite(clock.inverse.values[reached]))
    assert np.all(np.diff(clock.inverse.values[reached]) >= 0.0)


@pytest.mark.parametrize("target", [None, "image"])
def test_clock_builds_where_its_top_rounds_the_discriminant_below_zero(target):
    # the density falls from 1 to 1e-6 over a step of 1e-6: at the clock's
    # top, a^2 + 2 b r rounds below 0, where the edge rule reads the last node
    g = TimeGrid(np.array([0.0, 1.0, 1.000001]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        clock = build_clock_from_density(SampledPath(g, np.array([0.5, 1.0, 1e-6]), LINEAR), 1e-6, target=target)
        top = clock.forward.values[-1]
        s, d = clock.inverse_density_at(np.array([top, 0.5 * top]))
    assert clock.inverse.values[-1] == 1.000001
    assert s[0] == 1.000001 and d[0] == 1e-6
    assert (s[1], d[1]) == clock.inverse_density_at(0.5 * top)
    assert (s[0], d[0]) == clock.inverse_density_at(top)


def test_roundtrip_invariant():
    g = TimeGrid.uniform(1.0, 801)
    coeffs = make_coeffs(g, 2.0 + np.sin(3 * g.nodes) ** 2, 0.3, eps=0.5)
    clock = build_phi(coeffs, identity_process(g))
    tol = default_tolerance(g) + default_tolerance(clock.target_grid)
    t = np.linspace(0.05, 0.95, 13)
    assert np.max(np.abs(clock.inverse_at(clock.forward_at(t)) - t)) <= tol
    s = np.linspace(0.0, clock.forward.values[-1] * 0.95, 13)
    assert np.max(np.abs(clock.forward_at(clock.inverse_at(s)) - s)) <= tol


# ---------------------------------------------------------------------------
# time_change_path
# ---------------------------------------------------------------------------


def test_time_change_identity():
    g = TimeGrid.uniform(1.0, 51)
    X = SampledPath(g, np.sin(g.nodes), LINEAR)
    out = time_change_path(X, TimeChangeMap.identity(g), "inverse")
    assert np.allclose(out.values, X.values)


def test_time_change_quadratic_example():
    # oracle: X(t) = t^2, phi(t) = 2 t  =>  X(phi^{-1}(t)) = t^2 / 4
    g = TimeGrid.uniform(1.0, 501)
    clock = build_phi(make_coeffs(g, 2.0, 0.0, eps=1.0), identity_process(g))
    X = SampledPath(g, g.nodes**2, LINEAR)
    out = time_change_path(X, clock, "inverse")
    for t in (0.0, 1.0, 2.0):
        assert out.at(t) == pytest.approx(t**2 / 4.0, abs=1e-4)


def test_time_change_roundtrip():
    g = TimeGrid.uniform(1.0, 501)
    clock = build_phi(make_coeffs(g, 1.5 + g.nodes, 0.0, eps=0.5), identity_process(g))
    X = SampledPath(g, np.cos(2 * g.nodes), LINEAR)
    back = time_change_path(time_change_path(X, clock, "inverse"), clock, "forward")
    tol = default_tolerance(g) + default_tolerance(clock.target_grid)
    assert np.max(np.abs(back.values - X.values)) <= tol


def test_time_change_range_error():
    g = TimeGrid.uniform(1.0, 51)
    clock = build_phi(make_coeffs(g, 2.0, 0.0, eps=1.0), identity_process(g))
    short = TimeGrid.uniform(0.5, 26)
    X = SampledPath(short, short.nodes.copy(), LINEAR)
    with pytest.raises(StructuralError):
        time_change_path(X, clock, "inverse")


# ---------------------------------------------------------------------------
# substitution_check
# ---------------------------------------------------------------------------


def test_substitution_telescopes_exactly():
    g = TimeGrid.uniform(1.0, 101)
    v = identity_process(g)
    clock = build_phi(make_coeffs(g, 1.0 + g.nodes, 0.0, eps=0.5), v)
    residual = substitution_check(const_path(g, 1.0), v.path, clock)
    assert residual <= 1e-12


def test_substitution_linear_case():
    # both sides equal t^2 / 8 in closed form for h(t)=t, X(t)=t, phi=2t
    g = TimeGrid.uniform(1.0, 1001)
    clock = build_phi(make_coeffs(g, 2.0, 0.0, eps=1.0), identity_process(g))
    h = SampledPath(g, g.nodes.copy(), LINEAR)
    X = SampledPath(g, g.nodes.copy(), LINEAR)
    residual = substitution_check(h, X, clock)
    assert residual <= 5e-3


@pytest.mark.parametrize("n_coarse,n_fine", [(501, 2001)])
def test_substitution_refines(n_coarse, n_fine):
    def residual(n):
        g = TimeGrid.uniform(1.0, n)
        clock = build_phi(make_coeffs(g, 1.0 + g.nodes, 0.0, eps=0.5), identity_process(g))
        h = SampledPath(g, np.sin(g.nodes), LINEAR)
        X = SampledPath(g, g.nodes**2 / 2.0, LINEAR)
        return substitution_check(h, X, clock)

    assert residual(n_fine) <= residual(n_coarse)


# ---------------------------------------------------------------------------
# the horizon squash: terminal_clock and its inverse and derivative
# ---------------------------------------------------------------------------


def test_terminal_time_unit_tau():
    assert terminal_clock(1.0, 1.0) == pytest.approx(0.5)
    assert terminal_clock_inverse(0.5) == pytest.approx(1.0)


def test_terminal_time_degenerate_tau():
    assert terminal_clock(0.0, 0.0) == 0.0


def test_terminal_time_tau_three():
    assert terminal_clock(3.0, 3.0) == pytest.approx(0.75)
    # derivative at the squashed horizon equals (1 + tau)^2
    assert terminal_clock_derivative(0.75) == pytest.approx((1 + 3.0) ** 2)


def test_terminal_time_domain_error():
    with pytest.raises(DomainError):
        terminal_clock_inverse(1.0)


@pytest.mark.parametrize(
    "t,tau",
    [(-2.0, 5.0), (-1.0, 5.0), (1.0, -0.5), (-1e-300, 1.0), (math.nan, 1.0), (1.0, math.nan),
     (math.nan, math.nan), (math.inf, math.inf), (-math.inf, 1.0), (1.0, -math.inf)],
)
def test_terminal_clock_rejects_times_outside_its_domain(t, tau):
    # s / (1 + s) is in [0, 1) only for s = min(t, tau) finite and >= 0; a
    # negative tau would stop a clock that has not started
    with pytest.raises(DomainError):
        terminal_clock(t, tau)


@pytest.mark.parametrize("u", [-1.0, -1e-300, 1.0, 2.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("form", [terminal_clock_inverse, terminal_clock_derivative])
def test_squashed_forms_reject_times_outside_zero_one(form, u):
    # u / (1 - u) and (1 - u)**-2 are the squash's inverse and its
    # derivative only on its range [0, 1)
    with pytest.raises(DomainError):
        form(u)


@pytest.mark.parametrize("t,tau,want", [(0.0, math.inf, 0.0), (math.inf, 1.0, 0.5), (3.0, math.inf, 0.75)])
def test_terminal_clock_with_one_infinite_argument(t, tau, want):
    # no horizon, or a time past a finite one
    assert terminal_clock(t, tau) == want


@settings(max_examples=300, deadline=None)
@given(tau=st.floats(0.0, 50.0), data=st.data())
def test_terminal_clock_forms_are_one_map(tau, data):
    # the inverse undoes the clock below the horizon, and the derivative is
    # the reciprocal of the clock's density (1 + t)**-2
    t = data.draw(st.floats(0.0, tau))
    u = terminal_clock(t, tau)
    assert abs(terminal_clock_inverse(u) - t) <= 1e-12 * (1.0 + t)
    assert abs(terminal_clock_derivative(u) * (1.0 + t) ** -2 - 1.0) <= 1e-12 * (1.0 + t)


def test_terminal_clock_round_trips_up_to_two_to_the_53():
    # at 2**53 - 1 the squash is 1 - 2**-53 and its inverse exact; from 2**53
    # on 1 + s rounds to s, so the squash would read 1, outside its range
    s = 2.0**53 - 1.0
    u = terminal_clock(s, s)
    assert u == 1.0 - 2.0**-53
    assert terminal_clock_inverse(u) == 9007199254740991.0
    assert terminal_clock(s, math.inf) == terminal_clock(math.inf, s) == u
    for t, tau in ((2.0**53, 2.0**53), (2.0**53, math.inf), (math.inf, 2.0**60), (1e300, 1e300)):
        with pytest.raises(DomainError, match=r"min\(t, tau\) < 2\*\*53"):
            terminal_clock(t, tau)


@settings(max_examples=300, deadline=None)
@given(s=st.floats(0.0, 2.0**53, exclude_max=True), other=st.floats(0.0, math.inf))
def test_terminal_clock_values_are_in_its_inverses_domain(s, other):
    # over its whole domain the squash stays below 1, so the inverse and the
    # derivative accept what it returns
    u = terminal_clock(s, max(s, other))
    assert 0.0 <= u < 1.0
    assert terminal_clock_inverse(u) >= 0.0 and terminal_clock_derivative(u) >= 1.0


@settings(max_examples=100, deadline=None)
@given(tau=st.floats(0.0, 50.0), t=st.floats(0.0, 200.0))
def test_terminal_clock_below_one(tau, t):
    assert 0.0 <= terminal_clock(t, tau) < 1.0
