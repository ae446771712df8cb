"""Command-line interface: parse arguments, run one subcommand, map exit codes.

Every run and every output format lives in `scan`.  Exit codes: 0 on success,
2 for configuration or validation problems (including finite inputs too large
to evaluate), 3 when a physics cross-check fails (closed form vs general
form, or an oracle identity).  All output is deterministic for a fixed
config, seed and BLAS thread count.
"""

from __future__ import annotations

import argparse
import sys

from .exceptions import ConsistencyError, SagnacQfiError
from .scan import (
    format_result,
    load_config,
    run_coeffs,
    run_oracle_check,
    run_qfi,
    run_scan_alpha,
    run_scan_n,
    run_scan_tau,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sagnac-qfi",
        description=(
            "Quantum Fisher information for rotation sensing with trapped "
            "atoms on a driven ring."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("coeffs", "print derived constants and evolution coefficients"),
        ("qfi", "print closed-form and general-form QFI at one configuration"),
        ("scan-n", "sweep particle number and fit the log-log QFI slope"),
        ("scan-alpha", "sweep the coherent amplitude's phase or magnitude"),
        ("scan-tau", "sweep interrogation time with omega_p = pi/tau"),
        ("oracle-check", "run every oracle identity and report pass/fail"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="flat key = value config file")
        p.add_argument(
            "--set",
            metavar="KEY=VALUE",
            action="append",
            default=[],
            help="override one config key (repeatable)",
        )
        p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
        p.add_argument(
            "--format",
            choices=("csv", "json"),
            default="csv",
            help="output format (default csv)",
        )
        p.add_argument(
            "--seed", type=int, default=0, help="seed for randomized oracle draws"
        )
    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
        if args.command == "oracle-check":
            result = run_oracle_check(cfg, seed=args.seed)
        else:
            # Built per call, so the runners are looked up in this module's
            # namespace at call time.
            run = {
                "coeffs": run_coeffs,
                "qfi": run_qfi,
                "scan-n": run_scan_n,
                "scan-alpha": run_scan_alpha,
                "scan-tau": run_scan_tau,
            }[args.command]
            result = run(cfg)
        _emit(format_result(args.command, result, cfg, args.format), args.out)
    except ConsistencyError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except (SagnacQfiError, ValueError, OSError) as exc:  # config or validation
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # finite input too large to evaluate
        print(f"error: input out of range: {exc}", file=sys.stderr)
        return 2
    if args.command == "oracle-check" and not result["all_passed"]:
        print("oracle check failed", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
