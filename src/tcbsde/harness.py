"""Experiment configuration, report bundles and the run/sweep entry points.

A scenario is a pure function of its config (seed included), so identical
configs produce byte-identical CSV tables; wall-clock runtime lives only in
the metadata block.  Exit-code policy: 0 when every verdict passes, 1 when
any fails, 2 for configuration or structural errors (the CLI maps these).
"""

from __future__ import annotations

import configparser
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .io import write_csv

OUT_DIR_ENV = "TCBSDE_OUT"


@dataclass
class ExperimentConfig:
    scenario: str
    seed: int = 7
    paths: int | None = None
    out: str | None = None
    tol: float | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.paths is not None and self.paths < 1:
            raise ConfigError("path count must be positive")
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol >= 0):
            raise ConfigError("tolerance must be finite and non-negative")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        cp = configparser.ConfigParser()
        try:
            if not cp.read(path):
                raise ConfigError(f"cannot read config file {path!r}")
            if not cp.has_section("experiment"):
                raise ConfigError("config needs an [experiment] section")
            exp = cp["experiment"]
            name = exp.get("scenario")
            if not name:
                raise ConfigError("config names no scenario")
            params = {k: _coerce(v) for k, v in cp.items("params")} if cp.has_section("params") else {}
            fields = dict(
                seed=exp.getint("seed", fallback=7),
                paths=exp.getint("paths", fallback=None),
                out=exp.get("out", fallback=None),
                tol=exp.getfloat("tol", fallback=None),
            )
        except (configparser.Error, ValueError) as e:
            raise ConfigError(f"bad config file {path!r}: {e}") from e
        return cls(scenario=name, params=params, **fields)

    def resolved_out(self) -> Path:
        base = self.out or os.environ.get(OUT_DIR_ENV, "./tcbsde-out")
        return Path(base)

    def param(self, key, default):
        """``params[key]`` as the type of the numeric ``default``, or ``default`` when unset.

        A value that does not convert without loss (``2.5`` for an int), or
        that is not finite, is a ``ConfigError``.
        """
        if key not in self.params:
            return default
        value = self.params[key]
        kind = type(default)
        try:
            out = kind(value)
        except (TypeError, ValueError, OverflowError):
            out = None
        if out is None or out != value or not math.isfinite(out):
            raise ConfigError(f"param {key} = {value!r} is not a finite {kind.__name__}")
        return out


def _coerce(v: str):
    for cast in (int, float):
        try:
            return cast(v)
        except ValueError:
            continue
    return v


@dataclass
class Verdict:
    name: str
    measured: float
    threshold: float
    op: str = "<="  # measured <op> threshold
    passed: bool = False

    @classmethod
    def check(cls, name, measured, threshold, op="<=") -> "Verdict":
        ok = {
            "<=": measured <= threshold,
            ">=": measured >= threshold,
        }[op]
        return cls(name=name, measured=float(measured), threshold=float(threshold), op=op, passed=bool(ok))

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (
            f"{tag} {self.name} measured={self.measured:.6g} "
            f"threshold={self.threshold:.6g} ({self.op})"
        )


@dataclass
class ReportBundle:
    scenario: str
    metadata: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)  # name -> (header, rows)
    verdicts: list = field(default_factory=list)
    estimates: dict = field(default_factory=dict)  # name -> value; "<name>_se" pairs

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def add_table(self, name, header, rows) -> None:
        self.tables[name] = (list(header), [list(r) for r in rows])

    def write(self, out_dir) -> Path:
        out = Path(out_dir) / self.scenario
        out.mkdir(parents=True, exist_ok=True)
        lines = [f"scenario = {self.scenario}"]
        for k in sorted(self.metadata):
            lines.append(f"{k} = {self.metadata[k]}")
        for k in sorted(self.estimates):
            lines.append(f"estimate.{k} = {self.estimates[k]:.12g}")
        lines.append("")
        lines.extend(v.line() for v in self.verdicts)
        (out / "report.txt").write_text("\n".join(lines) + "\n", newline="\n")
        for name, (header, rows) in self.tables.items():
            write_csv(out / f"{name}.csv", header, rows)
        return out


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    description: str
    anchor: str  # the mathematical property the scenario exercises
    module: str  # timechange | wiener | chain
    fn: object
    budget_s: float  # wall-clock limit of one run, gated as ``runtime_seconds``


def _registry() -> dict:
    from . import scenarios

    return scenarios.REGISTRY


def list_scenarios() -> list[ScenarioSpec]:
    """Stable catalog of registered scenarios."""
    reg = _registry()
    return [reg[k] for k in sorted(reg)]


def run_scenario(config: ExperimentConfig, write: bool = True) -> ReportBundle:
    """Execute one scenario, gate and stamp its runtime, optionally write the bundle."""
    reg = _registry()
    if config.scenario not in reg:
        raise ConfigError(
            f"unknown scenario {config.scenario!r}; known: {', '.join(sorted(reg))}"
        )
    spec = reg[config.scenario]
    t0 = time.perf_counter()
    bundle = spec.fn(config)
    elapsed = time.perf_counter() - t0
    bundle.verdicts.append(Verdict.check("runtime_seconds", elapsed, spec.budget_s))
    bundle.metadata.setdefault("seed", str(config.seed))
    bundle.metadata["runtime_seconds"] = f"{elapsed:.3f}"
    bundle.metadata["module"] = spec.module
    bundle.metadata["anchor"] = spec.anchor
    if write:
        bundle.write(config.resolved_out())
    return bundle


def seed_sweep(config: ExperimentConfig, seeds, write: bool = True) -> ReportBundle:
    """Run one scenario across seeds; aggregate verdict pass rates and dispersions."""
    seeds = list(seeds)
    if len(seeds) < 2:
        raise ConfigError("a sweep needs at least 2 seeds")
    from dataclasses import replace

    bundles = []
    for s in seeds:
        cfg = replace(config, seed=int(s))
        bundles.append(run_scenario(cfg, write=False))

    agg = ReportBundle(scenario=f"{config.scenario}-sweep")
    agg.metadata["seeds"] = ",".join(str(s) for s in seeds)
    names = [v.name for v in bundles[0].verdicts]
    rows = []
    for name in names:
        passes = sum(1 for b in bundles for v in b.verdicts if v.name == name and v.passed)
        rate = passes / len(bundles)
        rows.append([name, rate])
        agg.verdicts.append(Verdict.check(f"pass_rate.{name}", rate, 0.9, op=">="))
    agg.add_table("pass_rates", ["verdict", "pass_rate"], rows)

    est_names = sorted(
        k for k in bundles[0].estimates if not k.endswith("_se") and f"{k}_se" in bundles[0].estimates
    )
    import numpy as np

    disp_rows = []
    for k in est_names:
        vals = np.array([b.estimates[k] for b in bundles])
        ses = np.array([b.estimates[f"{k}_se"] for b in bundles])
        dispersion = float(np.std(vals))
        mean_se = float(np.mean(ses))
        disp_rows.append([k, float(np.mean(vals)), dispersion, mean_se])
        agg.verdicts.append(
            Verdict.check(f"dispersion.{k}", dispersion, 3.0 * mean_se + 1e-12, op="<=")
        )
    if disp_rows:
        agg.add_table(
            "estimate_dispersion", ["estimate", "mean", "dispersion", "mean_reported_se"], disp_rows
        )
    if write:
        agg.write(config.resolved_out())
    return agg
