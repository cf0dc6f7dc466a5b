"""Command-line entry points for the experiment engine.

Subcommands: simulate, tail, scaling, bias, decompose-check, mixing-profile,
mgf-check, calibrate. Exit codes: 0 success, 2 config error, 3 budget
exceeded, 4 property-check failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .bounds import TailPoint, calibrate_constants
from .harness import (BudgetError, CheckFailure, ConfigError, ExperimentConfig,
                      emit_outputs, run_bias_curve, run_decompose_check,
                      run_mgf_check, run_mixing_profile, run_scaling,
                      run_tail_experiment)
from .processes import generate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_CHECK = 4

_SUBCOMMAND_EXPERIMENT = {
    "simulate": "simulate",
    "tail": "tail",
    "scaling": "scaling",
    "bias": "bias-curve",
    "decompose-check": "decompose-check",
    "mixing-profile": "mixing-profile",
    "mgf-check": "mgf-check",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tsustat",
                                     description="seeded Monte Carlo experiments for "
                                                 "U-statistics on dependent series")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*_SUBCOMMAND_EXPERIMENT, "calibrate"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file",
                       required=name != "calibrate")
        p.add_argument("--out", help="output directory (overrides config out_dir)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--threads", type=int, help="worker process count")
        p.add_argument("--budget", type=float, help="cap on the estimated work")
        if name == "calibrate":
            p.add_argument("--result", required=True,
                           help="directory holding result.json from a tail run")
            p.add_argument("--train", required=True,
                           help="comma-separated training T values")
            p.add_argument("--c4", type=float, default=None,
                           help="bias-offset constant used during calibration")
    return parser


def _load_config(args) -> ExperimentConfig:
    raw_path = args.config
    cfg = ExperimentConfig.from_json(raw_path)
    if args.seed is not None:
        raw = dict(cfg.raw)
        raw["seed"] = args.seed
        cfg = ExperimentConfig.from_dict(raw)
    if args.threads is not None:
        cfg.threads = args.threads
    if args.budget is not None:
        cfg.budget = args.budget
    if args.out is not None:
        cfg.out_dir = args.out
    expected = _SUBCOMMAND_EXPERIMENT[args.command]
    if cfg.experiment != expected:
        raise ConfigError(f"subcommand '{args.command}' needs experiment "
                          f"'{expected}', config says '{cfg.experiment}'")
    return cfg


def _run_calibrate(args) -> int:
    result_path = os.path.join(args.result, "result.json")
    try:
        with open(result_path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {result_path}: {exc}") from exc
    data = payload.get("data", {})
    if data.get("experiment") != "tail":
        raise ConfigError("calibrate needs the result of a tail experiment")
    train = {int(t) for t in args.train.split(",")}
    M = data["kernel_bound"]
    points = []
    for curve in data["curves"]:
        if curve["T"] not in train:
            continue
        for x, p in zip(curve["x"], curve["empirical"]):
            points.append(TailPoint(x=x, T=curve["T"], M=M, probability=p))
    if not points:
        raise ConfigError(f"no curves found for training T in {sorted(train)}")
    c4 = args.c4 if args.c4 is not None else 1.0
    result = calibrate_constants(points, c4=c4)
    out = {
        "constants": result.constants.to_dict(),
        "capped": result.capped,
        "used_points": result.used_points,
        "slack": None if result.slack == float("inf") else result.slack,
        "binding_point": None if result.binding_point is None else
            result.binding_point._asdict(),
    }
    out_dir = args.out or args.result
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "calibration.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(path)
    return EXIT_OK


def _run_simulate(cfg: ExperimentConfig) -> int:
    if cfg.length < 1:
        raise ConfigError("simulate needs length >= 1")
    path = generate(cfg.process, cfg.length)
    out_dir = cfg.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    target = os.path.join(out_dir, "path.csv")
    with open(target, "w", encoding="utf-8") as fh:
        path.to_csv(fh)
    print(target)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "calibrate":
            return _run_calibrate(args)
        cfg = _load_config(args)
        if args.command == "simulate":
            return _run_simulate(cfg)
        runner = {
            "tail": run_tail_experiment,
            "scaling": run_scaling,
            "bias": run_bias_curve,
            "decompose-check": run_decompose_check,
            "mixing-profile": run_mixing_profile,
            "mgf-check": run_mgf_check,
        }[args.command]
        result = runner(cfg)
        out_dir = cfg.out_dir or "."
        for written in emit_outputs(result, out_dir):
            print(written)
        if hasattr(result, "all_ok") and not result.all_ok:
            raise CheckFailure(f"{cfg.experiment}: a property check failed")
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CheckFailure as exc:
        print(f"property check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
