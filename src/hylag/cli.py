"""Command-line front end.

Subcommands:
  colex   -- write the colex segment H^{m,r} as an edge-list file
  lambda  -- maximize an edge-list file's Lagrangian, print its certificate
  verify  -- run the conjecture verifier over m values or a plateau window,
             write <output>.json and <output>.csv
  check   -- run a named property suite

Exit codes: 0 success; 1 counterexample found (verify) or suite failure
(check); 2 bad arguments / unparsable input / infeasible size; 3 result not
certified (KKT residual above --tol); 4 saturation warning (best witness
uses the entire allowed support; re-run with more slack).

The command line alone sets a run: every default is the library's
(SolverConfig, VerifyConfig).  All output is deterministic for fixed
arguments and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .hypergraph import Hypergraph, colex_segment
from .lagrangian import LagrangianResult, SizeError, SolverConfig, grid_oracle, maximize
from .suites import SuiteResult, available_suites, run_suite
from .verifier import (
    VerifyConfig,
    reports_csv_text,
    reports_json_text,
    verify_many,
    verify_range,
)

__all__ = ["main", "build_parser"]


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not value >= 0:  # also rejects nan, which every comparison fails
        raise argparse.ArgumentTypeError(f"must be a number >= 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hylag",
        description="Hypergraph Lagrangians: compute, maximize, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("colex", help="write H^{m,r} as an edge list")
    p.add_argument("--m", type=_nonneg, required=True, help="number of edges")
    p.add_argument("--r", type=_positive, required=True, help="uniformity")
    p.add_argument("--output", default="-", help="path or - for stdout (default)")

    p = sub.add_parser("lambda", help="maximize the Lagrangian of an edge-list file")
    p.add_argument("--input", required=True, help="edge-list file")
    p.add_argument("--starts", type=_positive, default=SolverConfig.starts)
    p.add_argument("--tol", type=_tolerance, default=1e-7,
                   help="KKT residual above this exits 3 (uncertified)")
    p.add_argument("--seed", type=_nonneg, default=SolverConfig.seed)
    p.add_argument("--oracle-n", type=_positive, default=None,
                   help="also run the exact grid oracle with this denominator")
    p.add_argument("--output", default="-", help="path or - for stdout (default)")

    p = sub.add_parser("verify", help="verify the colex conjecture at given sizes")
    p.add_argument("--r", type=_positive, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", type=_positive, default=None,
                       help="verify the whole plateau window of [t-1]^{(r)}")
    group.add_argument("--m", type=_positive, action="append", default=None,
                       help="edge count; repeatable")
    p.add_argument("--support-slack", type=_nonneg, default=VerifyConfig.support_slack)
    p.add_argument("--starts", type=_positive, default=VerifyConfig.starts)
    p.add_argument("--seed", type=_nonneg, default=VerifyConfig.seed)
    p.add_argument("--jobs", type=_positive, default=VerifyConfig.jobs)
    p.add_argument("--output", default="verify_report",
                   help="basename; writes <output>.json and <output>.csv")

    p = sub.add_parser("check", help="run a property suite")
    p.add_argument("--suite", required=True, choices=available_suites())
    p.add_argument("--seed", type=_nonneg, default=VerifyConfig.seed)
    p.add_argument("--trials", type=_positive, default=500,
                   help="random instances to check; the exhaustive kk ignores it, "
                        "kkt and swaps add 15 and 7 fixed instances")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # main's parser, built on main's first call rather than at import, then
    # reused: parsing leaves a parser as it was
    return build_parser()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_colex(args) -> int:
    _write_text(args.output, colex_segment(args.m, args.r).to_text())
    return 0


def _lambda_exit_code(res: LagrangianResult, tol: float) -> int:
    kkt = res.kkt_residual
    return 3 if (kkt.on_support > tol or kkt.off_support > tol) else 0


def cmd_lambda(args) -> int:
    with open(args.input, encoding="utf-8") as fh:
        H = Hypergraph.from_text(fh.read())
    res = maximize(H, SolverConfig(starts=args.starts, seed=args.seed))
    payload = res.to_json_dict()
    if args.oracle_n is not None:
        payload["oracle"] = grid_oracle(H, args.oracle_n).to_json_dict()
    _write_text(args.output, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return _lambda_exit_code(res, args.tol)


def _verify_exit_code(reports) -> int:
    if any(rep.counterexample for rep in reports):
        return 1
    if any(rep.saturated for rep in reports):
        return 4
    return 0


def cmd_verify(args) -> int:
    cfg = VerifyConfig(
        starts=args.starts,
        seed=args.seed,
        support_slack=args.support_slack,
        jobs=args.jobs,
    )
    if args.t is not None:
        reports = verify_range(args.r, args.t, cfg)
    else:
        reports = verify_many(args.m, args.r, cfg)
    _write_text(args.output + ".json", reports_json_text(reports))
    _write_text(args.output + ".csv", reports_csv_text(reports))
    for rep in reports:
        status = "COUNTEREXAMPLE" if rep.counterexample else "ok"
        if rep.saturated and not rep.counterexample:
            status = "ok (saturated: raise --support-slack)"
        print(
            f"m={rep.m} r={rep.r} t={rep.t} {rep.regime} "
            f"colex={float(rep.colex_value):.12g} best={float(rep.best_candidate_value):.12g} "
            f"candidates={rep.candidates_examined} {status}"
        )
    print(f"wrote {args.output}.json and {args.output}.csv")
    return _verify_exit_code(reports)


def _print_suite(res: SuiteResult) -> None:
    status = "pass" if res.passed else "FAIL"
    print(f"{res.name:<12} trials={res.trials:<6} failures={res.failures:<4} {status}")
    for note in res.notes:
        print(f"  - {note}")


def cmd_check(args) -> int:
    res = run_suite(args.suite, seed=args.seed, trials=args.trials)
    _print_suite(res)
    return 0 if res.passed else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = {
        "colex": cmd_colex,
        "lambda": cmd_lambda,
        "verify": cmd_verify,
        "check": cmd_check,
    }[args.command]
    try:
        return handler(args)
    except (OSError, ValueError, SizeError) as exc:
        print(f"hylag: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
