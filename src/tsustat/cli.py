"""Command-line entry points for the experiment engine.

Subcommands: simulate, tail, scaling, bias, decompose-check, mixing-profile,
mgf-check, calibrate. Exit codes: 0 success, 2 config error, 3 budget
exceeded, 4 property-check failure.
"""
from __future__ import annotations

import argparse
import io
import json
import sys

from .harness import (EXPERIMENTS, BudgetError, CheckFailure, ConfigError,
                      ExperimentConfig, _read_json, calibrate_from_tail, emit_outputs,
                      load_tail_result, read_field, run_experiment, write_files)
from .processes import generate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_CHECK = 4

# subcommand -> experiment; each subcommand but ``bias`` is named after its experiment
_SUBCOMMANDS = {("bias" if e == "bias-curve" else e): e for e in EXPERIMENTS}


def _t_values(text: str) -> set[int]:
    try:
        return {int(t) for t in text.split(",")}
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tsustat",
                                     description="seeded Monte Carlo experiments for "
                                                 "U-statistics on dependent series")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", help="output directory (overrides config out_dir)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--threads", type=int, help="worker process count")
        p.add_argument("--budget", type=float, help="cap on the estimated work")
    p = sub.add_parser("calibrate", help="calibrate bound constants on a tail run, "
                                         "starting from the constants in its config.json")
    p.add_argument("--result", required=True,
                   help="directory holding result.json and config.json from a tail run")
    p.add_argument("--train", required=True, type=_t_values,
                   help="comma-separated training T values")
    p.add_argument("--c4", type=float, default=None,
                   help="bias-offset constant used during calibration (default: the run's)")
    p.add_argument("--out", help="output directory (default: the --result directory)")
    return parser


def _load_config(args) -> ExperimentConfig:
    raw = _read_json(args.config)
    if args.seed is not None and isinstance(raw, dict):
        raw = dict(raw, seed=args.seed)  # config.json records the seed that ran
    cfg = ExperimentConfig.from_dict(raw)
    for key, value in (("threads", args.threads), ("budget", args.budget),
                       ("out_dir", args.out)):
        if value is not None:
            setattr(cfg, key, read_field(key, value))
    expected = _SUBCOMMANDS[args.command]
    if cfg.experiment != expected:
        raise ConfigError(f"subcommand '{args.command}' needs experiment "
                          f"'{expected}', config says '{cfg.experiment}'")
    return cfg


def _run_calibrate(args) -> int:
    result = calibrate_from_tail(load_tail_result(args.result), args.train, c4=args.c4)
    text = json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n"
    print(*write_files(args.out or args.result, {"calibration.json": text}), sep="\n")
    return EXIT_OK


def _run_simulate(cfg: ExperimentConfig) -> int:
    buf = io.StringIO()
    generate(cfg.process, cfg.length).to_csv(buf)
    print(*write_files(cfg.out_dir or ".", {"path.csv": buf.getvalue()}), sep="\n")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "calibrate":
            return _run_calibrate(args)
        cfg = _load_config(args)
        if cfg.experiment == "simulate":
            return _run_simulate(cfg)
        run = run_experiment(cfg)
        for written in emit_outputs(run, cfg.out_dir or "."):
            print(written)
        if not getattr(run.result, "all_ok", True):
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
