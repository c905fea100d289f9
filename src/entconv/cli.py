"""Command-line interface.

Exit codes: 0 success, 2 invalid configuration, 3 reconstruction failed to
converge, 4 I/O failure, 5 invalid count data.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, default_config, load_config, save_config
from .counts import CountDataError
from .pipeline import (COUNT_FILES, run_chsh, run_efficiency, run_reconstruct_process,
                       run_reconstruct_state, run_report, run_simulate)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4
EXIT_DATA = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entconv",
        description="Simulate and analyze entanglement-preserving frequency conversion")
    parser.add_argument("--config", type=Path, default=None,
                        help="INI configuration (omit for built-in defaults)")
    parser.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory (default: ./out)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the configured random seed")
    parser.add_argument("--mc-samples", type=int, default=None,
                        help="override the configured Monte-Carlo sample count")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", help="emit the four count CSVs")

    p = sub.add_parser("reconstruct-state", help="ML state reconstruction from a count CSV")
    p.add_argument("--counts", type=Path, default=None,
                   help=f"count CSV (default: OUT/{COUNT_FILES['state_output']})")
    p.add_argument("--label", default="output", help="label used in the report filename")
    p.add_argument("--raw", action="store_true", help="skip accidental subtraction")

    p = sub.add_parser("reconstruct-process", help="ML process reconstruction from a count CSV")
    p.add_argument("--counts", type=Path, default=None,
                   help=f"count CSV (default: OUT/{COUNT_FILES['process']})")

    p = sub.add_parser("chsh", help="CHSH S parameter from a 16-record count CSV")
    p.add_argument("--counts", type=Path, default=None,
                   help=f"count CSV (default: OUT/{COUNT_FILES['chsh']})")

    sub.add_parser("efficiency", help="conversion-efficiency budget report")
    sub.add_parser("report", help="full pipeline with reference comparison")

    p = sub.add_parser("write-config", help="write the default configuration")
    p.add_argument("--path", type=Path, default=Path("entconv.ini"))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else default_config()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.seed is not None:
        config.seed = args.seed
    if args.mc_samples is not None:
        config.mc_samples = args.mc_samples

    try:
        if args.command == "simulate":
            paths = run_simulate(config, args.out)
            for name, path in paths.items():
                print(f"{name}: {path}")
        elif args.command == "reconstruct-state":
            counts = args.counts or args.out / COUNT_FILES["state_output"]
            result = run_reconstruct_state(config, args.out, counts, args.label,
                                           subtract=not args.raw)
            print(f"state_{args.label}: converged={result.converged} "
                  f"fidelity={result.metrics.fidelity:.6f}")
            if not result.converged:
                return EXIT_NO_CONVERGENCE
        elif args.command == "reconstruct-process":
            counts = args.counts or args.out / COUNT_FILES["process"]
            result = run_reconstruct_process(config, args.out, counts)
            print(f"process: converged={result.converged} "
                  f"fidelity={result.metrics.fidelity:.6f}")
            if not result.converged:
                return EXIT_NO_CONVERGENCE
        elif args.command == "chsh":
            counts = args.counts or args.out / COUNT_FILES["chsh"]
            result = run_chsh(config, args.out, counts)
            print(f"S = {result.s_value:.4f} +- {result.s_sigma:.4f}")
        elif args.command == "efficiency":
            budget = run_efficiency(config, args.out)
            print(f"observed photon conversion: {budget['photon_conversion_observed']:.4%}")
            print(f"intrinsic pair conversion:  {budget['pair_conversion_intrinsic']:.4%}")
        elif args.command == "report":
            values = run_report(config, args.out)
            print(f"summary written to {Path(args.out) / 'summary.txt'}")
            print(f"S = {values['chsh_s']:.4f}, "
                  f"F_out corrected = {values['fidelity_output_corrected']:.4f}")
        elif args.command == "write-config":
            save_config(config, args.path)
            print(f"config written to {args.path}")
    except RuntimeError as exc:  # ReconstructionError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except CountDataError as exc:  # before ValueError, its base
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:  # ConfigError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
