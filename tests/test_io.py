import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcbsde.errors import ConfigError, InvariantError, StructuralError
from tcbsde.io import (
    _write_lines,
    format_float,
    load_chain_model,
    read_solution_csv,
    write_csv,
    write_solution_csv,
)
from tcbsde.timechange import TimeGrid
from tcbsde.wiener import SolutionEnsemble
from tcbsde.chain import ChainSolution


def small_solution():
    g = TimeGrid.uniform(1.0, 4)
    rng = np.random.default_rng(0)
    return SolutionEnsemble(
        grid=g,
        Y=rng.normal(size=(3, 4)),
        Z=rng.normal(size=(3, 4, 2)),
        stop_idx=np.array([3, 2, 3]),
        scheme="lsmc",
        seed=0,
    )


def test_float_format_twelve_significant_digits():
    assert format_float(1.0 / 3.0) == "0.333333333333"
    assert format_float(1.0) == "1"
    assert format_float(1.23456789012345e-7) == "1.23456789012e-07"


def test_csv_lf_endings(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ["a", "b"], [[1.0, 2.0]])
    raw = p.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    assert raw.decode().splitlines()[0] == "a,b"


def test_solution_roundtrip(tmp_path):
    sol = small_solution()
    p = tmp_path / "sol.csv"
    write_solution_csv(sol, p)
    header = p.read_text().splitlines()[0]
    assert header == "path_id,node_time,Y_1,Z_11,Z_12,stopped_flag"
    back = read_solution_csv(p)
    assert np.allclose(back["Y"], sol.Y, atol=1e-11)
    assert np.allclose(back["Z"], sol.Z, atol=1e-11)
    # stopped flag set at and after the stop index
    assert back["stopped"][1, 2] == 1 and back["stopped"][1, 1] == 0


def reference_read_solution_csv(path):
    # cell by cell in Python, as the reader used to; indexes paths by their id
    lines = [ln for ln in path.read_text().split("\n") if ln]
    header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    n_z = sum(1 for h in header if h.startswith("Z_"))
    path_ids = sorted({int(r[0]) for r in rows})
    times = sorted({float(r[1]) for r in rows})
    Y = np.empty((len(path_ids), len(times)))
    Z = np.empty((len(path_ids), len(times), n_z))
    stopped = np.zeros((len(path_ids), len(times)), dtype=int)
    t_index = {format_float(t): i for i, t in enumerate(times)}
    for r in rows:
        p, j = int(r[0]), t_index[format_float(float(r[1]))]
        Y[p, j] = float(r[2])
        for a in range(n_z):
            Z[p, j, a] = float(r[3 + a])
        stopped[p, j] = int(r[3 + n_z])
    return {"times": np.array(times), "Y": Y, "Z": Z, "stopped": stopped}


def _odd_solution():
    g = TimeGrid.uniform(3.0, 7)
    rng = np.random.default_rng(4)
    Y = rng.normal(size=(4, 7)) * 10.0 ** rng.integers(-8, 9, size=(4, 7))
    Z = rng.normal(size=(4, 7, 2))
    Y[0, :3] = [-0.0, 1e-300, 123456789012345.0]
    Z[1, 2] = [-0.0, -1e-300]
    Z[2, 5] = [123456789012345.0, -123456789012345.0]
    return SolutionEnsemble(
        grid=g, Y=Y, Z=Z, stop_idx=np.array([6, 0, 3, 7]), scheme="lsmc", seed=0
    )


@pytest.mark.parametrize("make_sol", [small_solution, _odd_solution])
def test_read_solution_csv_matches_reference_reader(tmp_path, make_sol):
    p = tmp_path / "sol.csv"
    write_solution_csv(make_sol(), p)
    fast, ref = read_solution_csv(p), reference_read_solution_csv(p)
    assert fast.keys() == ref.keys()
    for key in ref:
        assert fast[key].dtype == ref[key].dtype and fast[key].shape == ref[key].shape
        assert np.array_equal(fast[key], ref[key]), key


@pytest.mark.parametrize("edit", ["drop", "duplicate", "ragged", "text", "comment", "foreign", "no-flag"])
def test_read_solution_csv_rejects_malformed_files(tmp_path, edit):
    p = tmp_path / "sol.csv"
    write_solution_csv(small_solution(), p)
    lines = p.read_text().splitlines()
    if edit == "foreign":  # a CSV that is no solution snapshot
        lines = ["a,b", "0,0"]
    elif edit == "no-flag":  # the snapshot's first three columns only
        lines = [",".join(line.split(",")[:3]) for line in lines]
    elif edit == "drop":
        del lines[5]
    elif edit == "duplicate":
        lines.insert(5, lines[5])
    elif edit == "ragged":
        lines[5] += ",0"
    elif edit == "comment":
        lines.insert(5, "# a comment line is no row")
    else:
        lines[5] = lines[5].replace(",0", ",x", 1)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(StructuralError):
        read_solution_csv(p)


@pytest.mark.filterwarnings("error")
def test_read_header_only_solution_csv(tmp_path):
    p = tmp_path / "sol.csv"
    p.write_text("path_id,node_time,Y_1,Z_11,Z_12,stopped_flag\n")
    back = read_solution_csv(p)
    shapes = {"times": (0,), "Y": (0, 0), "Z": (0, 0, 2), "stopped": (0, 0)}
    assert {k: v.shape for k, v in back.items()} == shapes
    assert back["times"].dtype == float and back["stopped"].dtype == int


def test_read_solution_csv_with_crlf_endings(tmp_path):
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    write_solution_csv(_odd_solution(), lf)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    want, got = read_solution_csv(lf), read_solution_csv(crlf)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].dtype == want[key].dtype and np.array_equal(got[key], want[key]), key


def reference_write_solution_csv(sol, path):
    # cell by cell through NumPy scalars, as the writer used to
    d = sol.Z.shape[2]
    header = ["path_id", "node_time", "Y_1"] + [f"Z_1{a + 1}" for a in range(d)] + ["stopped_flag"]
    rows = []
    for p in range(sol.paths):
        for j, t in enumerate(sol.grid.nodes):
            rows.append(
                [str(p), format_float(t), format_float(sol.Y[p, j])]
                + [format_float(sol.Z[p, j, a]) for a in range(d)]
                + [str(int(j >= sol.stop_idx[p]))]
            )
    write_csv(path, header, rows)


def test_solution_csv_bytes_match_reference_writer(tmp_path):
    sol = _odd_solution()
    write_solution_csv(sol, tmp_path / "fast.csv")
    reference_write_solution_csv(sol, tmp_path / "ref.csv")
    fast = (tmp_path / "fast.csv").read_bytes()
    assert b",-0," in fast and b",1e-300," in fast and b",1.23456789012e+14," in fast
    assert fast == (tmp_path / "ref.csv").read_bytes()


def template_write_solution_csv(sol, path):
    # one "%" template per row: the reference for the writer's single
    # template over every row
    d = sol.Z.shape[2]
    header = ["path_id", "node_time", "Y_1"] + [f"Z_1{a + 1}" for a in range(d)] + ["stopped_flag"]
    # "%.12g" prints a Python float as format_float does, and a Python float
    # prints like the NumPy scalar it came from; one template fills a row
    row = "%d,%s," + "%.12g," * (1 + d) + "%d"
    times = [format_float(t) for t in sol.grid.nodes.tolist()]
    n = len(times)
    Y, Z, stops = sol.Y.tolist(), sol.Z.tolist(), sol.stop_idx.tolist()
    lines = [",".join(header)]
    for p in range(sol.paths):
        flags = [0] * stops[p] + [1] * (n - stops[p])  # zip drops what runs past n
        lines.extend([row % (p, t, y, *z, f) for t, y, z, f in zip(times, Y[p], Z[p], flags)])
    _write_lines(path, lines)


@settings(max_examples=40, deadline=None)
@given(
    paths=st.integers(0, 12),
    n=st.integers(2, 9),
    d=st.sampled_from([1, 2]),
    t_end=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
    layout=st.sampled_from(["C", "transposed"]),
)
def test_solution_csv_bytes_match_template_writer(tmp_path_factory, paths, n, d, t_end, seed, layout):
    rng = np.random.default_rng(seed)
    Y = rng.normal(size=(paths, n)) * 10.0 ** rng.integers(-300, 300, size=(paths, n))
    Z = rng.normal(size=(paths, n, d)) * 10.0 ** rng.integers(-12, 12, size=(paths, n, d))
    Y[rng.random((paths, n)) < 0.1] = -0.0
    Z[rng.random((paths, n, d)) < 0.1] = -0.0
    Y[rng.random((paths, n)) < 0.1] = 1e-300
    Z[rng.random((paths, n, d)) < 0.1] = -1e-300
    if layout == "transposed":
        # the LSMC solver returns transposed views of step-major arrays
        Y = np.ascontiguousarray(Y.T).T
        Z = np.ascontiguousarray(Z.transpose(1, 0, 2)).transpose(1, 0, 2)
    # stops at node 0, inside, at the last node and past it
    stop_idx = rng.choice([0, n // 2, n - 1, n], size=paths)
    sol = SolutionEnsemble(
        grid=TimeGrid.uniform(t_end, n), Y=Y, Z=Z, stop_idx=stop_idx, scheme="lsmc", seed=0
    )
    out = tmp_path_factory.mktemp("csv")
    write_solution_csv(sol, out / "fast.csv")
    template_write_solution_csv(sol, out / "template.csv")
    assert (out / "fast.csv").read_bytes() == (out / "template.csv").read_bytes()


def write_state_values_csv(sol: ChainSolution, path) -> None:
    """Dense value-function table: one column per state."""
    N = sol.state_values.shape[1]
    header = ["node_time"] + [f"Y_state_{i}" for i in range(N)]
    rows = [
        [format_float(t)] + [format_float(sol.state_values[j, i]) for i in range(N)]
        for j, t in enumerate(sol.grid.nodes)
    ]
    write_csv(path, header, rows)


def test_chain_solution_csv(tmp_path):
    g = TimeGrid.uniform(1.0, 3)
    sol = ChainSolution(
        grid=g, state_values=np.array([[0.1, 0.9], [0.2, 0.8], [0.3, 0.7]]), scheme="markov-ode"
    )
    path = tmp_path / "values.csv"
    write_state_values_csv(sol, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "node_time,Y_state_0,Y_state_1"
    assert len(lines) == 4


CHAIN_CONFIG = """
[chain]
states = idle busy done
initial = idle
rate_bound = 4.0

[rates]
idle->busy = constant 1.0
busy->done = linear 0.5 0.1
busy->idle = polynomial 0.2 0.0 0.3

[hitting]
set = done

[loss]
busy = polynomial 1.0 1.0
"""


def test_load_chain_model(tmp_path):
    p = tmp_path / "chain.ini"
    p.write_text(CHAIN_CONFIG)
    cfg = load_chain_model(p)
    assert cfg.state_names == ["idle", "busy", "done"]
    assert cfg.hitting_set == frozenset({2})
    A = cfg.model.rates(2.0)
    assert A[1, 0] == pytest.approx(1.0)  # idle -> busy, constant
    assert A[2, 1] == pytest.approx(0.5 + 0.1 * 2.0)  # busy -> done, linear
    assert A[0, 1] == pytest.approx(0.2 + 0.3 * 4.0)  # busy -> idle, polynomial
    assert np.allclose(A.sum(axis=0), 0.0, atol=1e-12)
    assert cfg.loss_rate(3.0, 1) == pytest.approx(4.0)  # 1 + t at t = 3
    assert cfg.loss_rate(3.0, 0) == 0.0


def test_load_chain_model_runs_end_to_end(tmp_path):
    # loaded model feeds the message solver directly
    from tcbsde.chain import message_transmission

    p = tmp_path / "chain.ini"
    p.write_text(
        "[chain]\nstates = src dst\ninitial = src\nrate_bound = 1.0\n"
        "[rates]\nsrc->dst = constant 1.0\n"
        "[hitting]\nset = dst\n"
        "[loss]\nsrc = constant 1.0\n"
    )
    cfg = load_chain_model(p)
    rep = message_transmission(
        cfg.model, cfg.loss_rate, source=0, target=1, horizon=16.0, paths=4000, seed=0
    )
    assert rep.reach_probability == pytest.approx(0.5, abs=0.02)


@pytest.mark.parametrize(
    "mutation",
    [
        ("initial = idle", "initial = nowhere"),
        ("idle->busy = constant 1.0", "idle->busy = sine 1.0"),
        ("set = done", "set = limbo"),
        ("idle->busy = constant 1.0", "idlebusy = constant 1.0"),
        ("idle->busy = constant 1.0", "idle->busy = constant abc"),
        ("idle->busy = constant 1.0", "idle->busy ="),
        ("[chain]\n", ""),  # no section header before the first key
        ("states = idle busy done", "states = idle busy done idle"),
        ("rate_bound = 4.0", "rate_bound = nan"),
        ("rate_bound = 4.0", "rate_bound = inf"),
    ],
)
def test_load_chain_model_rejects_bad_configs(tmp_path, mutation):
    old, new = mutation
    p = tmp_path / "chain.ini"
    p.write_text(CHAIN_CONFIG.replace(old, new))
    with pytest.raises(ConfigError):
        load_chain_model(p)


@pytest.mark.parametrize(
    "mutation, message",
    [
        (("rate_bound = 4.0", "rate_bound = 0.5"), "exceeds the thinning bound"),
        (("idle->busy = constant 1.0", "idle->busy = constant -1.0"), "negative off-diagonal rate"),
        (("idle->busy = constant 1.0", "idle->busy = linear nan 1.0"), "not finite at t=0.0"),
    ],
)
def test_load_chain_model_rejects_invalid_generators(tmp_path, mutation, message):
    p = tmp_path / "chain.ini"
    p.write_text(CHAIN_CONFIG.replace(*mutation))
    with pytest.raises(InvariantError, match=message):
        load_chain_model(p)



# the first coefficient is the value at t = 0, where the loader validates
_START = st.floats(0.0, 3.0)
_COEFF = st.floats(-3.0, 3.0)
_PROFILE = st.one_of(
    st.builds("constant {!r}".format, _START),
    st.builds("linear {!r} {!r}".format, _START, _COEFF),
    st.builds(
        lambda a, c: "polynomial " + " ".join(map(repr, [a, *c])), _START, st.lists(_COEFF, max_size=3)
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    rates=st.lists(_PROFILE, min_size=3, max_size=3),
    losses=st.lists(st.one_of(st.none(), _PROFILE), min_size=3, max_size=3),
    t=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=20),
    seed=st.integers(0, 2**31),
)
def test_loaded_callbacks_on_arrays_are_the_per_time_calls_stacked(tmp_path_factory, rates, losses, t, seed):
    # a cycle of three edges, and a loss on some states only
    p = tmp_path_factory.mktemp("chain") / "chain.ini"
    loss_lines = "".join(f"{name} = {spec}\n" for name, spec in zip("abc", losses) if spec is not None)
    p.write_text(
        "[chain]\nstates = a b c\ninitial = a\nrate_bound = 10.0\n"
        f"[rates]\na->b = {rates[0]}\nb->c = {rates[1]}\nc->a = {rates[2]}\n"
        f"[loss]\n{loss_lines}"
    )
    cfg = load_chain_model(p)
    t = np.array(t)
    states = np.random.default_rng(seed).integers(0, 3, t.size)
    stacked = np.array([cfg.model.rate_fn(s) for s in t.tolist()])
    batch = cfg.model.rate_fn(t)
    assert batch.shape == stacked.shape and batch.tobytes() == stacked.tobytes()
    kills = np.array([cfg.loss_rate(s, i) for s, i in zip(t.tolist(), states.tolist())], dtype=float)
    batch = cfg.loss_rate(t, states)
    assert batch.shape == kills.shape and batch.tobytes() == kills.tobytes()
