import math
from dataclasses import replace

import pytest

from tcbsde import scenarios

from tcbsde.errors import ConfigError
from tcbsde.harness import (
    ExperimentConfig,
    ReportBundle,
    Verdict,
    list_scenarios,
    run_scenario,
    seed_sweep,
)


def test_catalog_spans_modules_and_is_stable():
    specs = list_scenarios()
    assert len(specs) >= 10
    assert {s.module for s in specs} == {"timechange", "wiener", "chain"}
    assert all(s.anchor for s in specs)
    assert [s.name for s in specs] == sorted(s.name for s in specs)
    again = list_scenarios()
    assert [s.name for s in again] == [s.name for s in specs]


def test_unknown_scenario_is_config_error():
    with pytest.raises(ConfigError):
        run_scenario(ExperimentConfig(scenario="does-not-exist"), write=False)


def test_config_file_parsing(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(
        "[experiment]\nscenario = quadratic-clock-inverse\nseed = 3\npaths = 500\n"
        "tol = 0.01\n\n[params]\nstep = 0.002\nlabel = probe\n"
    )
    cfg = ExperimentConfig.from_file(p)
    assert cfg.scenario == "quadratic-clock-inverse"
    assert cfg.seed == 3 and cfg.paths == 500 and cfg.tol == 0.01
    assert cfg.params["step"] == 0.002
    assert cfg.params["label"] == "probe"


def test_config_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="x", seed=-1)
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="x", paths=0)
    for tol in (-1e-9, math.nan, math.inf):
        with pytest.raises(ConfigError):
            ExperimentConfig(scenario="x", tol=tol)
    p = tmp_path / "bad.ini"
    for text in (
        "[experiment]\nseed = 1\n",  # no scenario
        "[experiment]\nscenario = psi-properties\nseed = abc\n",
        "[experiment]\nscenario = psi-properties\ntol = small\n",
        "scenario = psi-properties\n",  # no section header
    ):
        p.write_text(text)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(p)


def test_param_takes_the_type_of_its_default():
    params = {"n": 50.0, "h": 2, "half": 2.5, "nan": math.nan, "inf": math.inf, "word": "ten"}
    cfg = ExperimentConfig(scenario="x", params=params)
    assert cfg.param("n", 7) == 50 and type(cfg.param("n", 7)) is int
    assert cfg.param("h", 1.0) == 2.0 and type(cfg.param("h", 1.0)) is float
    assert cfg.param("unset", 3) == 3
    for key, default in (("half", 1), ("nan", 1), ("nan", 1.0), ("inf", 1.0), ("word", 1)):
        with pytest.raises(ConfigError):
            cfg.param(key, default)


def test_verdict_lines_carry_values():
    v = Verdict.check("gap", 0.5, 1.0)
    assert v.passed and "gap" in v.line() and "0.5" in v.line() and "1" in v.line()
    v2 = Verdict.check("gap", 2.0, 1.0)
    assert not v2.passed and v2.line().startswith("FAIL")


def test_bundle_written_layout(tmp_path):
    cfg = ExperimentConfig(scenario="quadratic-clock-inverse", seed=5, out=str(tmp_path))
    bundle = run_scenario(cfg)
    out = tmp_path / "quadratic-clock-inverse"
    report = (out / "report.txt").read_text()
    assert "PASS" in report and "threshold" in report
    assert (out / "probes.csv").exists()


def test_identical_seeds_identical_tables(tmp_path):
    # every registered scenario, run twice in one process at its default size
    a = tmp_path / "a"
    b = tmp_path / "b"
    differ = []
    for spec in list_scenarios():
        for out in (a, b):
            bundle = run_scenario(ExperimentConfig(scenario=spec.name, seed=11, out=str(out)))
        assert bundle.tables, spec.name
        assert bundle.all_passed, [v.line() for v in bundle.verdicts if not v.passed]
        for name in bundle.tables:
            fa = a / spec.name / f"{name}.csv"
            fb = b / spec.name / f"{name}.csv"
            if fa.read_bytes() != fb.read_bytes():
                differ.append(f"{spec.name}/{name}.csv")
    assert not differ, differ


def test_sweep_identical_seeds_identical_bundles(tmp_path):
    cfg = ExperimentConfig(scenario="quadratic-clock-inverse", out=str(tmp_path))
    agg = seed_sweep(cfg, [4, 4], write=False)
    rates = dict((r[0], r[1]) for r in agg.tables["pass_rates"][1])
    assert all(v == 1.0 for v in rates.values())


def test_sweep_needs_two_seeds(tmp_path):
    cfg = ExperimentConfig(scenario="quadratic-clock-inverse", out=str(tmp_path))
    with pytest.raises(ConfigError):
        seed_sweep(cfg, [1], write=False)


def test_sweep_dispersion_against_reported_se(tmp_path):
    cfg = ExperimentConfig(
        scenario="lsmc-vs-closed-form", paths=4000, out=str(tmp_path),
        params={"steps": 25},
    )
    agg = seed_sweep(cfg, list(range(6)), write=False)
    disp = [v for v in agg.verdicts if v.name == "dispersion.y0"]
    assert disp and disp[0].passed


def test_cli_exit_codes(tmp_path):
    from tcbsde.cli import main

    assert main(["list"]) == 0
    assert main(["run", "--scenario", "identity-clock-roundtrip", "--out", str(tmp_path)]) == 0
    assert main(["run", "--scenario", "nope", "--out", str(tmp_path)]) == 2
    assert main(["run", "--out", str(tmp_path)]) == 2


def test_cli_config_file(tmp_path):
    from tcbsde.cli import main

    p = tmp_path / "exp.ini"
    p.write_text("[experiment]\nscenario = psi-properties\nseed = 2\n")
    assert main(["run", "--config", str(p), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "psi-properties" / "report.txt").exists()


def test_cli_rejects_a_linear_equivalence_config_with_grids_that_are_not_nested(tmp_path, capsys):
    # 7 steps read from an 11-node simulation: the direct noise would come
    # from nodes up to 0.043 away, with increments of the wrong variance
    from tcbsde.cli import main

    p = tmp_path / "exp.ini"
    p.write_text("[experiment]\nscenario = linear-equivalence\n[params]\nsteps = 7\nsource_nodes = 11\n")
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    assert "not nested" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "flag",
    [["--seed", "-1"], ["--paths", "0"], ["--paths", "-3"], ["--tol", "-1"], ["--tol", "nan"]],
)
def test_cli_flags_pass_the_config_checks(tmp_path, capsys, command, flag):
    from tcbsde.cli import main

    argv = [command, "--scenario", "chain-transform-law", *flag, "--out", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "text",
    [
        "[experiment]\nscenario = psi-properties\nseed = abc\n",
        "scenario = psi-properties\n",
        "[experiment]\nscenario = comparison-order\n[params]\nsteps = -3\n",
        "[experiment]\nscenario = comparison-order\n[params]\nsteps = nan\n",
        "[experiment]\nscenario = comparison-order\n[params]\nsteps = 2.5\n",
        "[experiment]\nscenario = quadratic-clock-inverse\n[params]\nstep = 0\n",
        "[experiment]\nscenario = psi-properties\n[params]\ngenerators = 0\n",
        "[experiment]\nscenario = psi-properties\n[params]\ngenerators = -2\n",
    ],
)
def test_cli_rejects_unparsable_config_files(tmp_path, capsys, text):
    from tcbsde.cli import main

    p = tmp_path / "exp.ini"
    p.write_text(text)
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_cli_sweep_rejects_non_integer_seeds(tmp_path, capsys):
    from tcbsde.cli import main

    argv = ["sweep", "--scenario", "psi-properties", "--seeds", "a,b", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: --seeds")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "scenario, extra, verdicts",
    [
        ("bounded-solution", ["--paths", "2000"], ["sup_abs_y"]),
        ("chain-bound-verification", [], ["doubled_profile", "tight_profile"]),
    ],
)
def test_cli_zero_tolerance_is_not_the_default(tmp_path, capsys, scenario, extra, verdicts):
    from tcbsde.cli import main

    main(["run", "--scenario", scenario, "--tol", "0", *extra, "--out", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    for name in verdicts:
        line = next(ln for ln in lines if f" {name} " in ln)
        assert line.endswith("threshold=1 (<=)")


def test_cli_flags_override_the_config_file(tmp_path):
    from tcbsde.cli import _build_parser, _config_from_args

    p = tmp_path / "exp.ini"
    p.write_text("[experiment]\nscenario = psi-properties\nseed = 2\npaths = 50\n[params]\nn = 4\n")
    args = _build_parser().parse_args(
        ["run", "--config", str(p), "--scenario", "chain-transform-law", "--seed", "5", "--tol", "0.5"]
    )
    cfg = _config_from_args(args)
    assert (cfg.scenario, cfg.seed, cfg.paths, cfg.out, cfg.tol) == ("chain-transform-law", 5, 50, None, 0.5)
    assert cfg.params == {"n": 4}


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    from tcbsde.harness import OUT_DIR_ENV

    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "envout"))
    cfg = ExperimentConfig(scenario="identity-clock-roundtrip")
    run_scenario(cfg)
    assert (tmp_path / "envout" / "identity-clock-roundtrip" / "report.txt").exists()


# ---------------------------------------------------------------------------
# runtime budgets and run --all
# ---------------------------------------------------------------------------


def _two_entry_registry(monkeypatch, budget_s=None):
    reg = {name: scenarios.REGISTRY[name]
           for name in ("identity-clock-roundtrip", "quadratic-clock-inverse")}
    if budget_s is not None:
        reg["quadratic-clock-inverse"] = replace(reg["quadratic-clock-inverse"], budget_s=budget_s)
    monkeypatch.setattr(scenarios, "REGISTRY", reg)
    return reg


def test_every_scenario_has_a_positive_budget():
    for spec in list_scenarios():
        assert math.isfinite(spec.budget_s) and spec.budget_s > 0, spec.name


def test_runtime_verdict_is_last_and_reads_the_budget():
    spec = scenarios.REGISTRY["quadratic-clock-inverse"]
    bundle = run_scenario(ExperimentConfig(scenario=spec.name), write=False)
    last = bundle.verdicts[-1]
    assert last.name == "runtime_seconds"
    assert last.threshold == spec.budget_s
    assert [v.name for v in bundle.verdicts].count("runtime_seconds") == 1
    assert bundle.metadata["runtime_seconds"] == f"{last.measured:.3f}"


def test_zero_budget_fails_the_runtime_verdict(monkeypatch):
    _two_entry_registry(monkeypatch, budget_s=0.0)
    bundle = run_scenario(ExperimentConfig(scenario="quadratic-clock-inverse"), write=False)
    assert not bundle.verdicts[-1].passed
    assert not bundle.all_passed
    assert bundle.verdicts[-1].line().startswith("FAIL runtime_seconds")


def test_cli_run_all_passes(tmp_path, monkeypatch, capsys):
    from tcbsde.cli import main

    reg = _two_entry_registry(monkeypatch)
    assert main(["run", "--all", "--seed", "3", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "2/2 scenarios passed" in out
    for name in reg:
        assert "seed = 3" in (tmp_path / name / "report.txt").read_text()


def test_cli_run_all_reports_failures(tmp_path, monkeypatch, capsys):
    from tcbsde.cli import main

    _two_entry_registry(monkeypatch, budget_s=0.0)
    assert main(["run", "--all", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "1/2 scenarios passed" in out
    assert "    FAIL runtime_seconds" in out


@pytest.mark.parametrize(
    "flag", [["--scenario", "psi-properties"], ["--config", "exp.ini"], ["--paths", "10"],
             ["--tol", "0.1"]],
)
def test_cli_run_all_rejects_single_scenario_flags(tmp_path, monkeypatch, flag):
    from tcbsde.cli import main

    _two_entry_registry(monkeypatch)
    assert main(["run", "--all", *flag, "--out", str(tmp_path)]) == 2
    assert not any(tmp_path.iterdir())


def test_oracle_divergence_verdict():
    from types import SimpleNamespace

    calm = SimpleNamespace(metadata={"diverging": False})
    growing = SimpleNamespace(metadata={"diverging": True})
    assert scenarios._oracle_not_diverging(calm, calm).passed
    v = scenarios._oracle_not_diverging(calm, growing)
    assert (v.name, v.measured, v.threshold, v.passed) == ("oracle_not_diverging", 1.0, 0.0, False)
