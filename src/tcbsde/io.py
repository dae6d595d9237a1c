"""Columnar CSV snapshots, report bundles, and the chain model text format.

CSV conventions: comma separated, one header row, LF line endings, floats
printed with 12 significant digits.  Wiener solution snapshots use the
columns ``path_id, node_time, Y_1, Z_11..Z_1d, stopped_flag``.  Reports are a
key=value metadata block plus one verdict line per checked invariant, each
carrying the measured value and its threshold.
"""

from __future__ import annotations

import configparser
import itertools
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.polynomial.polynomial import polyval

from .chain import MarkovChainModel
from .errors import ConfigError, StructuralError, check_positive
from .wiener import SolutionEnsemble


def format_float(x: float) -> str:
    return f"{float(x):.12g}"


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else format_float(c) for c in row))
    _write_lines(path, lines)


def _write_lines(path, lines) -> None:
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def write_solution_csv(sol: SolutionEnsemble, path) -> None:
    """Flat per-path snapshot of a Wiener solution ensemble."""
    P, n, d = sol.Z.shape
    header = ["path_id", "node_time", "Y_1"] + [f"Z_1{a + 1}" for a in range(d)] + ["stopped_flag"]
    times = [format_float(t) for t in sol.grid.nodes.tolist()]
    prefixes, flags = [], []
    for p, stop in enumerate(np.clip(sol.stop_idx, 0, n).tolist()):
        head = f"{p},"
        prefixes += [head + t for t in times]
        flags += ["0"] * stop + ["1"] * (n - stop)
    columns = [prefixes, sol.Y.ravel().tolist()]
    columns += [sol.Z[:, :, a].ravel().tolist() for a in range(d)]
    columns.append(flags)
    # "%.12g" prints a Python float as format_float does, and a Python float
    # prints like the NumPy scalar it came from; one template fills every row
    row = "%s," + "%.12g," * (1 + d) + "%s\n"
    cells = tuple(itertools.chain.from_iterable(zip(*columns)))
    Path(path).write_text(",".join(header) + "\n" + (row * (P * n)) % cells, newline="\n")


def read_solution_csv(path) -> dict:
    """Wiener solution snapshot back as arrays indexed by path rank and node rank.

    The header must be ``path_id,node_time,Y_1,Z_11..Z_1d,stopped_flag``, and
    the file must hold exactly one row per (path, node) pair.
    """
    with open(path) as fh:
        names = fh.readline().rstrip("\r\n").split(",")
        width, n_z = len(names), len(names) - 4
        if names != ["path_id", "node_time", "Y_1"] + [f"Z_1{a + 1}" for a in range(n_z)] + ["stopped_flag"]:
            raise StructuralError(f"{path} is not a solution snapshot: header {','.join(names)!r}")
        try:
            with warnings.catch_warnings():
                # a header-only file is an empty snapshot
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError as e:
            raise StructuralError(f"malformed row in {path}: {e}") from e
    if data.size and data.shape[1] != width:
        raise StructuralError(f"rows of {path} do not all have {width} cells")
    data = data.reshape(-1, width)
    pids, p_rank = np.unique(data[:, 0], return_inverse=True)
    times, t_rank = np.unique(data[:, 1], return_inverse=True)
    P, n = pids.size, times.size
    cell = p_rank * n + t_rank
    if np.any(np.bincount(cell, minlength=P * n) != 1):
        raise StructuralError(f"{path} does not hold exactly one row per (path, node)")
    out = np.empty((P * n, width))
    out[cell] = data
    out = out.reshape(P, n, width)
    return {"times": times, "Y": out[:, :, 2], "Z": out[:, :, 3 : 3 + n_z],
            "stopped": out[:, :, 3 + n_z].astype(int)}


# ---------------------------------------------------------------------------
# chain model text config
# ---------------------------------------------------------------------------

# the least and the most values each profile takes; an unknown one takes none
_PROFILES = {"constant": (1, 1), "linear": (2, 2), "polynomial": (1, math.inf)}


def _parse_profile(spec: str) -> list:
    """Coefficients ``[c0, c1, ...]`` of ``c0 + c1 t + ...``; ``constant`` and ``linear`` have degree 0 and 1."""
    kind, *values = spec.split() or [""]
    try:
        coeffs = [float(x) for x in values]
    except ValueError as e:
        raise ConfigError(f"non-numeric value in rate profile {spec!r}") from e
    least, most = _PROFILES.get(kind, (1, 0))
    if not least <= len(coeffs) <= most:
        raise ConfigError(f"rate profile {spec!r} is not constant c0, linear c0 c1 or polynomial c0 c1 ...")
    return coeffs


def _coefficient_table(profiles: dict, shape: tuple) -> np.ndarray:
    """Degree-first table: ``table[k][index]`` multiplies ``t**k`` in the profile at ``index``, else 0."""
    table = np.zeros((max(map(len, profiles.values()), default=1),) + shape)
    for index, coeffs in profiles.items():
        table[(slice(len(coeffs)),) + index] = coeffs
    return table


@dataclass
class ChainModelConfig:
    model: MarkovChainModel
    state_names: list
    hitting_set: frozenset
    loss_rate: object  # callable (t, state_index) -> float, or (m,) on arrays


def load_chain_model(path) -> ChainModelConfig:
    """Chain model from the sectioned text format.

    ::

        [chain]
        states = idle busy done
        initial = idle
        rate_bound = 4.0

        [rates]
        idle->busy = constant 1.0
        busy->done = linear 0.5 0.1

        [hitting]
        set = done

        [loss]
        busy = polynomial 1.0 1.0

    Profiles are coefficient lists; the generator and the loss rates each
    keep one degree-first table of them and read it with one ``polyval``, at
    one time or an array of times.  ``rate_bound`` is positive and finite.
    """
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
    except configparser.Error as e:
        raise ConfigError(f"bad chain config {path!r}: {e}") from e
    if not read:
        raise ConfigError(f"cannot read chain config {path!r}")
    try:
        names = cp.get("chain", "states").split()
        initial = cp.get("chain", "initial")
        # a NaN bound would pass every comparison with the rates
        bound = check_positive("rate_bound", cp.getfloat("chain", "rate_bound"), error=ConfigError)
    except (configparser.Error, ValueError) as e:
        raise ConfigError(f"bad [chain] section: {e}") from e
    index = {nm: i for i, nm in enumerate(names)}
    if len(index) != len(names):
        raise ConfigError(f"duplicate state names in {names}")
    if initial not in index:
        raise ConfigError(f"initial state {initial!r} not among states")
    N = len(names)

    rate_profiles = {}
    if cp.has_section("rates"):
        for key, spec in cp.items("rates"):
            if "->" not in key:
                raise ConfigError(f"rate key {key!r} must look like 'from->to'")
            src, dst = (s.strip() for s in key.split("->", 1))
            if src not in index or dst not in index:
                raise ConfigError(f"rate key {key!r} names unknown states")
            if src == dst:
                raise ConfigError("self-rates are implied by column balance; drop them")
            rate_profiles[index[dst], index[src]] = _parse_profile(spec)
    rates = _coefficient_table(rate_profiles, (N, N))
    diag = np.arange(N)

    def rate_fn(t):
        # one time gives (N, N), a 1-d array of m times (m, N, N)
        A = polyval(np.asarray(t, dtype=float)[..., None, None], rates, tensor=False)
        A[..., diag, diag] -= A.sum(axis=-2)
        return A

    hitting = frozenset()
    if cp.has_section("hitting"):
        hit_names = cp.get("hitting", "set").split()
        unknown = [h for h in hit_names if h not in index]
        if unknown:
            raise ConfigError(f"hitting set names unknown states {unknown}")
        hitting = frozenset(index[h] for h in hit_names)

    loss_profiles = {}
    if cp.has_section("loss"):
        for key, spec in cp.items("loss"):
            if key not in index:
                raise ConfigError(f"loss key {key!r} names an unknown state")
            loss_profiles[(index[key],)] = _parse_profile(spec)
    losses = _coefficient_table(loss_profiles, (N,))

    def loss_rate(t, i):
        # one time and state give a float; arrays of times and states give (m,)
        return polyval(t, losses[:, i], tensor=False)

    model = MarkovChainModel(N, rate_fn, index[initial], bound)
    model.validate([0.0])
    return ChainModelConfig(model=model, state_names=names, hitting_set=hitting, loss_rate=loss_rate)
