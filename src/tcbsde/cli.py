"""Command-line entry point: ``tcbsde run | list | sweep``.

``tcbsde run --all`` runs every registered scenario at its defaults (only
``--seed`` and ``--out`` apply) and prints one status line per scenario.

Exit codes: 0 when every verdict passes, 1 when any fails, 2 for
configuration or structural errors.  The default output directory comes from
``--out``, then the ``TCBSDE_OUT`` environment variable, then
``./tcbsde-out``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import ConfigError, TcbsdeError
from .harness import ExperimentConfig, list_scenarios, run_scenario, seed_sweep


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tcbsde", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one scenario and write its report bundle")
    _common_flags(runp)
    runp.add_argument("--all", action="store_true",
                      help="run every registered scenario at its defaults")

    sub.add_parser("list", help="print the scenario catalog")

    sweepp = sub.add_parser("sweep", help="run one scenario across seeds and aggregate")
    _common_flags(sweepp)
    sweepp.add_argument("--seeds", type=str, default=None,
                        help="comma-separated seed list (default: seed..seed+9)")
    return p


def _common_flags(p) -> None:
    p.add_argument("--scenario", type=str, default=None, help="registered scenario id")
    p.add_argument("--config", type=str, default=None, help="experiment config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--tol", type=float, default=None, help="tolerance override")


def _config_from_args(args) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.from_file(args.config)
    elif args.scenario:
        cfg = ExperimentConfig(scenario=args.scenario)
    else:
        raise ConfigError("name a scenario via --scenario or --config")
    flags = {k: getattr(args, k) for k in ("scenario", "seed", "paths", "out", "tol")}
    return replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def _run_all(args) -> int:
    clash = [f"--{k}" for k in ("scenario", "config", "paths", "tol") if getattr(args, k) is not None]
    if clash:
        raise ConfigError(f"--all runs every scenario at its defaults; drop {', '.join(clash)}")
    seed = {} if args.seed is None else {"seed": args.seed}
    base = ExperimentConfig(scenario="", out=args.out, **seed)
    specs = list_scenarios()
    failures = 0
    for spec in specs:
        bundle = run_scenario(replace(base, scenario=spec.name))
        status = "ok" if bundle.all_passed else "FAILED"
        print(f"{spec.name:32s} {status:7s} ({bundle.metadata['runtime_seconds']}s)")
        for v in bundle.verdicts:
            if not v.passed:
                print(f"    {v.line()}")
        failures += 0 if bundle.all_passed else 1
    print(f"\n{len(specs) - failures}/{len(specs)} scenarios passed; "
          f"bundles under {base.resolved_out()}/")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            for spec in list_scenarios():
                print(f"{spec.name:32s} [{spec.module:10s}] {spec.description}")
                print(f"{'':32s} anchor: {spec.anchor}")
            return 0
        if args.command == "run" and args.all:
            return _run_all(args)
        cfg = _config_from_args(args)
        if args.command == "run":
            bundle = run_scenario(cfg)
            for v in bundle.verdicts:
                print(v.line())
            print(f"bundle written to {cfg.resolved_out() / bundle.scenario}")
            return 0 if bundle.all_passed else 1
        if args.command == "sweep":
            if args.seeds:
                try:
                    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
                except ValueError:
                    raise ConfigError(
                        f"--seeds takes comma-separated integers, got {args.seeds!r}"
                    ) from None
            else:
                base = cfg.seed
                seeds = list(range(base, base + 10))
            bundle = seed_sweep(cfg, seeds)
            for v in bundle.verdicts:
                print(v.line())
            print(f"bundle written to {cfg.resolved_out() / bundle.scenario}")
            return 0 if bundle.all_passed else 1
        raise AssertionError("unreachable")
    except TcbsdeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
