"""Spans around the public tcbsde calls, installed only by the traced run.

``install(tracer)`` replaces each public function or method in ``TARGETS``
with a shim, in every loaded ``tcbsde`` module namespace that binds it (for
example ``chain`` binds ``build_clock_from_density`` imported from
``timechange``), and puts the originals back on exit.  Nothing under
``src/`` changes.

A span is (name, start, end, parent).  Self time is a span's duration minus
the durations of its direct children; ``calls`` counts spans not nested in
a span of the same name.  Callbacks the benchmark hands to the program are
wrapped by ``Tracer.counted`` and counted against the innermost open span,
which is where candidate events and rate evaluations come from.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

from tcbsde import chain as ch
from tcbsde import io as tio
from tcbsde import timechange as tc
from tcbsde import wiener as wi

SHIM_MARK = "_perfbench_span"


class Tracer:
    """In-memory span log plus per-iteration aggregates."""

    def __init__(self):
        # one entry per span in parallel arrays, which the garbage collector never scans
        self.names = []
        self._name_index = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.span_iteration = array("i")
        self.iteration = 0
        self._stack = []  # (index, name) of each open span
        self._child = []  # child time accumulated by each open span
        self._open_names = Counter()
        self._reset()

    def _reset(self):
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()  # (innermost span, key) -> count
        self.gauges = defaultdict(float)  # worst value seen this iteration

    def open(self, name: str) -> int:
        idx = len(self.start)
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        if not self._open_names[name]:
            self.calls[name] += 1
        self._open_names[name] += 1
        self.name.append(self._name_index[name])
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_iteration.append(self.iteration)
        self.end.append(0.0)
        self._stack.append((idx, name))
        self._child.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        self.end[idx] = end
        _, name = self._stack.pop()
        child = self._child.pop()
        duration = end - self.start[idx]
        self.self_time[name] += duration - child
        self._open_names[name] -= 1
        if self._child:
            self._child[-1] += duration

    def count(self, key: str, n: int = 1, span: str | None = None) -> None:
        if span is None:
            span = self._stack[-1][1] if self._stack else "none"
        self.counts[(span, key)] += n

    def gauge(self, key: str, value: float) -> None:
        self.gauges[key] = max(self.gauges[key], float(value))

    def counted(self, kind: str, fn):
        def counting(*args, **kwargs):
            self.count(kind)
            return fn(*args, **kwargs)

        return counting

    def finish_iteration(self, wall_s: float) -> dict:
        """Per-layer metrics of the iteration just traced; resets the aggregates."""
        m = {}
        for span in SPAN_NAMES:
            m[f"{span}.self_s"] = self.self_time.get(span, 0.0)
        m["timechange.at.calls"] = self.calls["timechange.at"]
        m["timechange.at.scalar_frac"] = _ratio(
            self.counts[("timechange.at", "scalar")], self.calls["timechange.at"]
        )
        m["timechange.clock.calls"] = self.calls["timechange.clock"]
        m["wiener.simulate.path_steps"] = self.counts[("wiener.simulate", "path_steps")]
        m["wiener.lsmc.path_steps"] = self.counts[("wiener.lsmc", "path_steps")]
        m["wiener.lsmc.rank_deficient"] = self.counts[("wiener.lsmc", "rank_deficient")]
        m["wiener.oracle.sweeps"] = self.counts[("wiener.oracle", "sweeps")]
        m["wiener.oracle.last_distance"] = self.gauges["wiener.oracle.last_distance"]
        m["wiener.oracle.diverging"] = self.counts[("wiener.oracle", "diverging")]
        m["wiener.driver.calls"] = self._count_anywhere("driver")
        m["chain.simulate.paths"] = self.counts[("chain.simulate", "paths")]
        m["chain.simulate.candidates"] = self.counts[("chain.simulate", "rate_fn")]
        m["chain.simulate.jumps"] = self.counts[("chain.simulate", "jumps")]
        m["chain.simulate.accept_ratio"] = _ratio(
            m["chain.simulate.jumps"], m["chain.simulate.candidates"]
        )
        m["chain.killed.candidates"] = self.counts[("chain.killed", "rate_fn")]
        m["chain.picard.truncated_fraction"] = self.gauges["chain.picard.truncated_fraction"]
        m["chain.ode.rate_evals"] = self.counts[("chain.ode", "rate_fn")]
        m["chain.ode.tail_probability"] = self.gauges["chain.ode.tail_probability"]
        m["chain.balance.probes"] = self.counts[("chain.balance", "probes")]
        m["chain.driver.calls"] = sum(self._count_anywhere(k) for k in ("f", "eta", "loss_rate"))
        m["io.write.bytes"] = self.counts[("io.write", "bytes")]
        accounted = sum(self.self_time.values())
        m["trace.iteration_s"] = wall_s
        m["trace.residual_s"] = wall_s - accounted
        self._reset()
        self.iteration += 1
        return m

    def _count_anywhere(self, key: str) -> int:
        return sum(n for (_, k), n in self.counts.items() if k == key)

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            iteration=np.frombuffer(self.span_iteration, dtype=np.int32),
        )


def _ratio(num, den) -> float:
    """num / den, and 0 when the layer did no work."""
    return num / den if den else 0.0


def median_metrics(per_iteration: list[dict]) -> dict:
    return {k: statistics.median(m[k] for m in per_iteration) for k in per_iteration[0]}


# --- what to wrap --------------------------------------------------------------


def _at_post(tr, args, kwargs, out):
    t = args[1] if len(args) > 1 else kwargs["t"]
    if isinstance(t, float) or np.ndim(t) == 0:
        tr.count("scalar", span="timechange.at")


def _simulate_brownian_post(tr, args, kwargs, out):
    tr.count("path_steps", out.increments.shape[0] * out.increments.shape[1], "wiener.simulate")


def _lsmc_post(tr, args, kwargs, out):
    tr.count("path_steps", out.Y.shape[0] * (out.Y.shape[1] - 1), "wiener.lsmc")
    tr.count("rank_deficient", int(bool(out.metadata["rank_deficient"])), "wiener.lsmc")


def _oracle_post(tr, args, kwargs, out):
    distances = out.metadata["iterate_distances"]
    tr.count("sweeps", len(distances), "wiener.oracle")
    tr.count("diverging", int(bool(out.metadata["diverging"])), "wiener.oracle")
    tr.gauge("wiener.oracle.last_distance", distances[-1])


def _simulate_chain_post(tr, args, kwargs, out):
    tr.count("paths", len(out), "chain.simulate")
    tr.count("jumps", sum(p.jump_times.size for p in out), "chain.simulate")


def _chain_solve_name(args, kwargs):
    scheme = args[1] if len(args) > 1 else kwargs["scheme"]
    return "chain.ode" if scheme == "markov-ode" else "chain.picard"


def _chain_solve_post(tr, args, kwargs, out):
    if out.scheme == "markov-ode":
        tr.gauge("chain.ode.tail_probability", out.metadata["tail_probability"])
    else:
        tr.gauge("chain.picard.truncated_fraction", out.metadata["truncated_fraction"])


def _balance_post(tr, args, kwargs, out):
    probes = args[2] if len(args) > 2 else kwargs["probes"]
    tr.count("probes", int(probes), "chain.balance")


def _write_post(tr, args, kwargs, out):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tr.count("bytes", os.path.getsize(path), "io.write")


# (owner, attribute, span name or naming function, post hook)
TARGETS = (
    (tc.SampledPath, "at", "timechange.at", _at_post),
    (tc, "build_phi", "timechange.clock", None),
    (tc, "build_clock_from_density", "timechange.clock", None),
    (wi, "simulate_brownian", "wiener.simulate", _simulate_brownian_post),
    (wi, "restrict_brownian", "wiener.simulate", None),
    (wi, "transform_driver", "wiener.transform", None),
    (wi, "transform_brownian", "wiener.transform", None),
    (wi, "solve_lsmc", "wiener.lsmc", _lsmc_post),
    (wi, "solve_picard_oracle", "wiener.oracle", _oracle_post),
    (wi, "map_solution", "wiener.map", None),
    (ch, "simulate_chain", "chain.simulate", _simulate_chain_post),
    (ch, "simulate_killed_chain", "chain.killed", None),
    (ch, "solve_chain_bsde", _chain_solve_name, _chain_solve_post),
    (ch, "transform_chain", "chain.transform", None),
    (ch, "transform_chain_driver", "chain.transform", None),
    (ch, "transform_chain_problem", "chain.transform", None),
    (ch, "check_gamma_balanced", "chain.balance", _balance_post),
    (ch, "map_chain_solution", "chain.map", None),
    (tio, "write_solution_csv", "io.write", _write_post),
    (tio, "read_solution_csv", "io.read", None),
)

SPAN_NAMES = (
    "timechange.at", "timechange.clock",
    "wiener.simulate", "wiener.transform", "wiener.lsmc", "wiener.oracle", "wiener.map",
    "chain.simulate", "chain.killed", "chain.picard", "chain.transform", "chain.ode",
    "chain.balance", "chain.map",
    "io.write", "io.read",
)


def _shim(tracer: Tracer, orig, name, post):
    def shim(*args, **kwargs):
        idx = tracer.open(name if isinstance(name, str) else name(args, kwargs))
        try:
            out = orig(*args, **kwargs)
        finally:
            tracer.close(idx)
        if post is not None:
            post(tracer, args, kwargs, out)
        return out

    setattr(shim, SHIM_MARK, name)
    shim.__wrapped__ = orig
    return shim


@contextlib.contextmanager
def install(tracer: Tracer):
    """Patch every binding of each target for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, post in TARGETS:
            orig = getattr(owner, attr)
            shim = _shim(tracer, orig, name, post)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [
                    mod for key, mod in list(sys.modules.items())
                    if (key == "tcbsde" or key.startswith("tcbsde.")) and getattr(mod, attr, None) is orig
                ]
            for holder in holders:
                saved.append((holder, attr, orig))
                setattr(holder, attr, shim)
        yield tracer
    finally:
        for holder, attr, orig in reversed(saved):
            setattr(holder, attr, orig)


def installed_shims() -> list[str]:
    """Every tcbsde binding that is currently a shim, as ``module.attr``."""
    found = []
    for key, mod in list(sys.modules.items()):
        if not (key == "tcbsde" or key.startswith("tcbsde.")):
            continue
        for attr, val in vars(mod).items():
            if hasattr(val, SHIM_MARK):
                found.append(f"{key}.{attr}")
            elif isinstance(val, type) and val.__module__ == key:
                found += [f"{key}.{attr}.{a}" for a, v in vars(val).items() if hasattr(v, SHIM_MARK)]
    return found
