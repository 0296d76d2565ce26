"""Benchmark command line: gen / solve / sweep / report.

Sweep configuration is a JSON document mirroring ExperimentConfig, with
optional nested "hyper" and "nuclear_cfg" sections; command-line flags
override file values. Exit codes: 0 success, 1 config error, 2 when any
solver-failure rows were recorded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from .bench import (
    SOLVER_FAILURES,
    ConfigError,
    ExperimentConfig,
    aggregate,
    make_instance,
    m_from_fraction,
    nmse,
    read_rows_csv,
    run_algorithm,
    run_experiment,
    to_db,
    write_csv,
)
from .core import Hyperparameters, effective_rank
from .nuclear import NuclearConfig
from .sensing import COMPLETION, load_instance, save_instance


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="rsvm-bench")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a problem-instance JSON file")
    gen.add_argument("--scenario", choices=("completion", "reconstruction"),
                     default="completion")
    gen.add_argument("--p", type=int, default=15)
    gen.add_argument("--q", type=int, default=30)
    gen.add_argument("--r", type=int, default=3)
    gen.add_argument("--m-fraction", type=float, default=0.7)
    gen.add_argument("--snr-db", type=float, default=20.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    slv = sub.add_parser("solve", help="solve one instance with one algorithm")
    slv.add_argument("--instance", required=True)
    slv.add_argument("--algorithm", required=True)
    slv.add_argument("--out", default=None,
                     help="optional path for the estimate as JSON")

    swp = sub.add_parser("sweep", help="run a full experiment grid")
    swp.add_argument("--config", required=True)
    swp.add_argument("--algorithms", default=None,
                     help="comma-separated override, e.g. rsvm,nuclear")
    swp.add_argument("--seed", type=int, default=None)
    swp.add_argument("--out", default=None, help="rows CSV path override")
    swp.add_argument("--jobs", type=int, default=None)
    swp.add_argument("--no-timing", action="store_true",
                     help="record zero wall times for byte-stable output")

    rpt = sub.add_parser("report", help="aggregate a rows CSV")
    rpt.add_argument("--rows", required=True)
    rpt.add_argument("--out", default=None,
                     help="aggregate CSV path (prints a table otherwise)")
    return parser


def _cmd_gen(args) -> int:
    # A one-point sweep: its checks are a sweep's.
    ExperimentConfig(scenario=args.scenario, p=args.p, q=args.q, r=args.r,
                     m_fraction=[args.m_fraction], snr_db=args.snr_db,
                     seed=args.seed)
    m = m_from_fraction(args.p, args.q, args.m_fraction)
    inst = make_instance(args.scenario, args.p, args.q, args.r, m,
                         args.snr_db, False, [args.seed, 0], [args.seed, 1],
                         [args.seed, 2])
    save_instance(inst, args.out)
    print(f"wrote instance p={args.p} q={args.q} r={args.r} m={m} "
          f"sigma_n={inst.sigma_n:.6g} -> {args.out}")
    return 0


def _cmd_solve(args) -> int:
    try:
        inst = load_instance(args.instance)
    except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot load instance {args.instance}: "
                          f"{type(exc).__name__}: {exc}") from exc
    # The instance as a one-point sweep, which checks the algorithm against
    # its shape. An instance stores no rank; r = 1 fits every shape.
    cfg = ExperimentConfig(
        scenario="completion" if inst.operator.kind == COMPLETION
        else "reconstruction",
        p=inst.p, q=inst.q, r=1, m_fraction=[inst.m / (inst.p * inst.q)],
        algorithms=(args.algorithm,))
    try:
        est = run_algorithm(args.algorithm, inst, cfg)
    except SOLVER_FAILURES as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 2
    result = {
        "algorithm": args.algorithm,
        "effective_rank": effective_rank(est.x_hat),
        "iterations": est.iterations,
        "converged": bool(est.converged),
    }
    # NMSE is relative to the truth's energy: none without a nonzero truth
    if inst.ground_truth is not None and inst.ground_truth.any():
        ratio = nmse(inst.ground_truth, est.x_hat)
        result["nmse_linear"] = ratio
        result["nmse_db"] = to_db(ratio)
    print(json.dumps(result, indent=2))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"x_hat": est.x_hat.tolist(), **result}))
    return 0


def _section(cls, name, values):
    """Build a nested config section; bad keys or values are config errors."""
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _load_config(path, overrides) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object, "
                          f"not {type(doc).__name__}")
    hyper_doc = doc.pop("hyper", None)
    hyper = None if hyper_doc is None \
        else _section(Hyperparameters, "hyper", hyper_doc)
    nuclear_cfg = _section(NuclearConfig, "nuclear_cfg",
                           doc.pop("nuclear_cfg", {}))
    doc.update(overrides)
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        return ExperimentConfig(hyper=hyper, nuclear_cfg=nuclear_cfg, **doc)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_sweep(args) -> int:
    overrides = {}
    if args.algorithms is not None:
        overrides["algorithms"] = tuple(args.algorithms.split(","))
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if args.no_timing:
        overrides["record_timing"] = False
    if args.out is not None:
        overrides["output_path"] = args.out
    cfg = _load_config(args.config, overrides)
    rows = run_experiment(cfg)
    out = cfg.output_path or "results.csv"
    write_csv(rows, out)
    n_failed = sum(row.failed for row in rows)
    print(f"wrote {len(rows)} rows ({n_failed} failures) -> {out}")
    return 2 if n_failed else 0


def _cmd_report(args) -> int:
    try:
        rows = read_rows_csv(args.rows)
    except (OSError, csv.Error, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot read rows {args.rows}: "
                          f"{type(exc).__name__}: {exc}") from exc
    if not rows:
        raise ConfigError(f"rows file {args.rows} holds no rows")
    agg = aggregate(rows)
    if args.out:
        write_csv(agg, args.out)
        print(f"wrote {len(agg)} aggregate rows -> {args.out}")
    else:
        print(f"{'sweep_value':>12} {'algorithm':>16} {'nmse_db':>10} "
              f"{'trials':>7} {'failures':>9}")
        for row in agg:
            print(f"{row.sweep_value:>12.6g} {row.algorithm:>16} "
                  f"{row.nmse_db:>10.3f} {row.n_trials:>7} {row.n_failures:>9}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_report(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
