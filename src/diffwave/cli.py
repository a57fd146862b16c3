"""Command-line surface: profile | simulate | rates | verify.

Exit codes: 0 success, 1 criterion failure, 2 usage, configuration,
initial-data, series-file or output error or a series too short to fit,
3 numerical blow-up, loss of hyperbolicity or a failed profile solve.
``ERROR_EXITS`` maps each error to its code.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .closures import HyperbolicityError
from .config import ConfigError, build_scenario, parse_config
from .diagnostics import FitError, FitWindowError, theorem_report
from .diffusion_wave import ProfileSolverError
from .output import (
    OutputError,
    SeriesError,
    emit_loglog_svg,
    read_series_csv,
    write_json,
    write_profile_csv,
    write_rates_csv,
    write_series_csv,
)
from .solver import BlowUpError, InitialDataError, run
from .verify import run_acceptance

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_USAGE = 2
EXIT_BLOWUP = 3

# (exception type, exit code, message prefix); the first match wins
ERROR_EXITS = (
    (ConfigError, EXIT_USAGE, "config error"),
    (InitialDataError, EXIT_USAGE, "initial data error"),
    (SeriesError, EXIT_USAGE, "series error"),
    (OutputError, EXIT_USAGE, "output error"),
    (BlowUpError, EXIT_BLOWUP, "numerical blow-up"),
    (HyperbolicityError, EXIT_BLOWUP, "numerical failure"),
    (ProfileSolverError, EXIT_BLOWUP, "profile solver failure"),
    (FitWindowError, EXIT_USAGE, "series too short"),
    (FitError, EXIT_CRITERION, "rate-fit failure"),
)


def _load_config(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError([f"cannot read config {path!r}: {exc}"]) from exc


def cmd_profile(args) -> int:
    _, profile = build_scenario(_load_config(args.config))
    path = os.path.join(args.out, "profile.csv")
    write_profile_csv(path, profile)
    print(f"wrote {path} ({len(profile.xi_grid)} nodes, residual {profile.residual:.3e})")
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec, profile = build_scenario(_load_config(args.config))
    if spec.end_time > 0.0:
        samples = np.linspace(0.0, spec.end_time, 101)
    else:
        samples = np.array([0.0])
    series = run(spec, profile, samples, store_z=False)
    path = os.path.join(args.out, "series.csv")
    write_series_csv(path, series)
    print(f"wrote {path} ({len(series.t)} samples, x0 = {series.x0:.6g})")
    return EXIT_OK


def cmd_rates(args) -> int:
    data = read_series_csv(args.series)
    t = data["t"]
    rows = theorem_report(t, data, l1_condition=args.targets == "improved")["rows"]
    write_rates_csv(os.path.join(args.out, "rates.csv"), rows)
    emit_loglog_svg(
        os.path.join(args.out, "rates.svg"),
        t,
        {r["quantity"]: data[r["quantity"]] for r in rows},
    )
    for row in rows:
        mark = "ok " if row["passed"] else "BAD"
        print(
            f"{mark} {row['quantity']:8s} exponent {row['exponent']:+.4f} "
            f"target {row['target']:+.3f} (tol {row['tolerance']:.2f}, "
            f"r2 {row['r_squared']:.4f})"
        )
    print(f"wrote {os.path.join(args.out, 'rates.csv')} and rates.svg")
    return EXIT_OK if all(r["passed"] for r in rows) else EXIT_CRITERION


def cmd_verify(args) -> int:
    results, _ = run_acceptance(fast=args.fast, out_dir=args.out)
    for res in results:
        print(res.line())
        for key, val in res.details.items():
            print(f"         {key} = {val}")
    report = {
        "criteria": [
            {
                "id": r.cid,
                "name": r.name,
                "passed": r.passed,
                "skipped": r.skipped,
                "details": r.details,
            }
            for r in results
        ],
        "overall_pass": all(r.passed for r in results if not r.skipped),
    }
    path = os.path.join(args.out, "verify.json")
    write_json(path, report)
    print(f"wrote {path}")
    ok = report["overall_pass"]
    print("acceptance:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_CRITERION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffwave",
        description="damped p-system laboratory: diffusion waves and decay rates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="solve the self-similar profile, write CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("simulate", help="run a scenario, write the norm series CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("rates", help="fit decay exponents from a series CSV")
    p.add_argument("--series", required=True)
    p.add_argument("--targets", choices=("improved", "base"), default="improved")
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_rates)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--fast", action="store_true",
                   help="skip the long decay scenarios")
    p.add_argument("--out", default="verify_out")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except tuple(kind for kind, _, _ in ERROR_EXITS) as exc:
        _, code, prefix = next(e for e in ERROR_EXITS if isinstance(exc, e[0]))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
