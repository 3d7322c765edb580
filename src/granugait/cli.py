"""Command-line experiment runner.

Subcommands mirror the study protocols: sweep, model-torque, classify,
closedloop, transition, calibrate.  All outputs land under --out.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import harness
from .config import RunConfig
from .errors import ConfigError, SimulationError


def build_parser():
    parser = argparse.ArgumentParser(
        prog="granugait",
        description="Deterministic quasi-static gait experiments on granular "
                    "media of varying depth.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("sweep", "speed vs body phase offset across depths"),
        ("model-torque", "median joint torque vs drag/Coulomb blend ratio"),
        ("classify", "KNN terrain-depth classification on synthetic loads"),
        ("closedloop", "adaptive-phase trial on constant-depth terrain"),
        ("transition", "flat-to-deep terrain crossing, adaptive vs fixed"),
        ("calibrate", "load calibration trials (air and deepest terrain)"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH",
                       help="INI config file (defaults used otherwise)")
        p.add_argument("--seed", type=int, metavar="U64",
                       help="master seed override")
        p.add_argument("--out", default="out", metavar="DIR",
                       help="output directory (default: ./out)")
        p.add_argument("--steps-per-cycle", type=int, metavar="N",
                       help="timesteps per gait cycle override")
    return parser


RUNNERS = {
    "sweep": harness.run_sweep,
    "model-torque": harness.run_model_torque,
    "classify": harness.run_classifier_eval,
    "closedloop": harness.run_closedloop,
    "transition": harness.run_transition,
    "calibrate": harness.run_calibrate,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_ini(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        if args.steps_per_cycle is not None:
            cfg.steps_per_cycle = args.steps_per_cycle
        cfg.validate()
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as err:
            raise ConfigError(f"cannot create output directory {args.out}: "
                              f"{err.strerror}") from err
        RUNNERS[args.command](cfg, args.out)
    except SimulationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: cannot write {err.filename or args.out}: "
              f"{err.strerror or err}", file=sys.stderr)
        return 2
    print(f"{args.command}: outputs written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
