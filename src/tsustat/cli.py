"""Command-line entry points for the experiment engine.

Subcommands: simulate, tail, scaling, bias, decompose-check, mixing-profile,
mgf-check, calibrate. Exit codes: 0 success, 2 config error, 3 budget
exceeded, 4 property-check failure.
"""
from __future__ import annotations

import argparse
import sys
from functools import cache

from .harness import (EXPERIMENTS, BudgetError, CheckFailure, ConfigError,
                      ExperimentConfig, _read_json, calibrate_from_tail, emit_outputs,
                      load_tail_result, read_field, run_experiment, write_files)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_CHECK = 4

_SUBCOMMANDS = {entry[0]: e for e, entry in EXPERIMENTS.items()}  # subcommand -> experiment
_COMMANDS = [*_SUBCOMMANDS, "calibrate"]


def _t_values(text: str) -> set[int]:
    try:
        return {int(t) for t in text.split(",")}
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")


@cache  # built once per process and command; parsing leaves the parser unchanged
def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand, or with only ``command``'s for a
    call that names ``command`` first: that call parses, and its usage and
    error lines read, as on the full parser."""
    parser = argparse.ArgumentParser(prog="tsustat",
                                     description="seeded Monte Carlo experiments for "
                                                 "U-statistics on dependent series")
    # a one-command parser names every command in its usage, as the full one does
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if command is None else
                                "{" + ",".join(_COMMANDS) + "}")
    for name in _SUBCOMMANDS:
        if command in (None, name):
            p = sub.add_parser(name)
            p.add_argument("--config", required=True, help="JSON config file")
            p.add_argument("--out", help="output directory (overrides config out_dir)")
            p.add_argument("--seed", type=int, help="override the config seed")
            p.add_argument("--threads", type=int, help="worker process count")
            p.add_argument("--budget", type=float, help="cap on the estimated work")
    if command in (None, "calibrate"):
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
    c4 = None if args.c4 is None else read_field("constants.c4", args.c4)  # NaN, inf exit 2
    calibration = calibrate_from_tail(load_tail_result(args.result), args.train, c4=c4)
    print(*write_files(args.out or args.result, {"calibration.json": calibration}), sep="\n")
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a call that names its subcommand first parses on that subcommand's
    # parser; help, no arguments and unknown names take the full one
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        if args.command == "calibrate":
            return _run_calibrate(args)
        cfg = _load_config(args)
        run = run_experiment(cfg)
        for written in emit_outputs(run, cfg.out_dir or "."):
            print(written)
        if not run.all_ok:
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
