"""Command-line runner for named experiments and path exports.

Usage::

    stochconv <experiment> --config file.json [--out dir] [--check] [--seed N] [--workers W]
    stochconv convolve --config file.json --method {direct,factorized,both} \
        --out paths.csv [--check] [--seed N] [--workers W]

Exit codes: 0 on success, 1 on a configuration/schema violation, an
unreadable config, an unwritable output path or an allocation larger than
memory, 2 when an invariant check fails in ``--check`` mode.
"""

from __future__ import annotations

import argparse
import sys

from .config import EXPERIMENTS, ScenarioConfig, load_config
from .errors import StochConvError
from .experiments import run_convolve, run_experiment

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochconv",
        description="Stochastic convolution experiments on truncated Hilbert spaces",
    )
    common = argparse.ArgumentParser(add_help=False)  # the options of every subcommand
    common.add_argument("--config", required=True, help="scenario config JSON file")
    common.add_argument("--check", action="store_true", help="fail on invariant violations")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--workers", type=int, default=None, help="override worker threads")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        cmd = sub.add_parser(name, parents=[common], help=f"run the {name} experiment preset")
        cmd.add_argument("--out", default=".", help="output directory for artifacts")
    convolve = sub.add_parser("convolve", parents=[common], help="export convolution paths as CSV")
    convolve.add_argument("--method", choices=("direct", "factorized", "both"), default="both",
                          help="which convolution pipeline(s) to run")
    convolve.add_argument("--out", required=True, help="output CSV path")
    return parser


def _load_with_overrides(args) -> ScenarioConfig:
    overrides = {key: value for key in ("seed", "workers")
                 if (value := getattr(args, key)) is not None}
    return load_config(args.config, overrides)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_with_overrides(args)
        if args.command == "convolve":
            ok = run_convolve(cfg, args.method, args.out, check=args.check)
            print(f"convolve method={args.method} ok={ok} -> {args.out}")
        else:
            if cfg.experiment != args.command:
                print(
                    f"error: config experiment {cfg.experiment!r} does not match "
                    f"subcommand {args.command!r}",
                    file=sys.stderr,
                )
                return 1
            report, ok = run_experiment(cfg, args.out)
            print(f"{args.command} all_ok={ok} hash={cfg.config_hash[:12]} -> {args.out}")
    except (StochConvError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    if args.check and not ok:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
