"""Command line interface.

Subcommands: analyze, distance, precondition, experiment.  Exit codes:
0 success, 1 usage or parse error, 2 numerical failure, 3 dimension or
rank error, 4 ill-posed input under --strict.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cones import parse_cone
from .errors import (ConeSpecError, DimensionError, InconsistentClassification, NumericalFailure,
                     RankDeficient)
from .grassmann import grassmann_distances, principal_angles, subspace_from_rowspan
from .harness import ExperimentConfig, condition_report, read_matrix, run_experiment, write_matrix
from .linalg import polar_decompose

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_DIMENSION = 3
EXIT_ILL_POSED = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="coniccond", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="condition report for a matrix against a cone")
    analyze.add_argument("--cone", required=True, help="cone spec, e.g. orthant:3")
    analyze.add_argument("--matrix", required=True, help="matrix file (text rows)")
    analyze.add_argument("--json", action="store_true", help="emit the report as JSON")
    analyze.add_argument("--witness", action="store_true", help="include perturbation witnesses")
    analyze.add_argument("--strict", action="store_true", help="exit 4 on ill-posed input")
    analyze.add_argument("--seed", type=int, default=0)

    distance = sub.add_parser("distance", help="principal angles and distances of two row spans")
    distance.add_argument("--a", required=True, help="first matrix file")
    distance.add_argument("--b", required=True, help="second matrix file")
    distance.add_argument("--json", action="store_true")

    precondition = sub.add_parser("precondition", help="write the balanced approximation")
    precondition.add_argument("--matrix", required=True)
    precondition.add_argument("--out", required=True)

    experiment = sub.add_parser("experiment", help="random Gaussian ensemble of instances")
    experiment.add_argument("--n", type=int, required=True)
    experiment.add_argument("--m", type=int, required=True)
    experiment.add_argument("--cone", default="", help="cone spec, defaults to orthant:n")
    experiment.add_argument("--trials", type=int, default=100)
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--out", default="", help="JSON-lines output file")
    return parser


def _print_report(report: dict) -> None:
    print(f"cone      : {report['cone']}")
    print(f"shape     : {report['m']} x {report['n']}")
    print(f"status    : {report['status']}")
    print(f"kappa     : {report['kappa']}")
    print(f"grassmann : {report['grassmann']}")
    renegar = report["renegar"]
    if renegar["kind"] == "exact":
        print(f"renegar   : {renegar['value']} ({renegar['basis']})")
    else:
        print(f"renegar   : [{renegar['lower']}, {renegar['upper']}] ({renegar['basis']})")
    if "gcc" in report:
        print(f"gcc       : {report['gcc']}")
    angles = report["angles"]
    print(f"angles    : primal {angles['primal']:.6g}, dual {angles['dual']:.6g}")
    print(f"iterations: {report['iteration_estimate']}")
    for witness in report.get("witnesses", []):
        print(
            f"witness   : {witness['property']} on {witness['applies_to']}, "
            f"frob_norm {witness['frob_norm']:.6g}, residual {witness['residual']:.3g}"
        )


def _cmd_analyze(args) -> int:
    cone = parse_cone(args.cone)
    matrix = read_matrix(args.matrix)
    report = condition_report(cone, matrix, seed=args.seed, include_witnesses=args.witness)
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        _print_report(report)
    if args.strict and report["status"] == "ill_posed":
        return EXIT_ILL_POSED
    return EXIT_OK


def _cmd_distance(args) -> int:
    w1 = subspace_from_rowspan(read_matrix(args.a))
    w2 = subspace_from_rowspan(read_matrix(args.b))
    angles = principal_angles(w1, w2)
    d_p, d_g, d_h = grassmann_distances(w1, w2)
    if args.json:
        print(json.dumps(
            {"angles": [float(x) for x in angles], "d_p": d_p, "d_g": d_g, "d_H": d_h},
            sort_keys=True,
        ))
    else:
        print(f"angles : {' '.join(f'{x:.12g}' for x in angles)}")
        print(f"d_p    : {d_p:.12g}")
        print(f"d_g    : {d_g:.12g}")
        print(f"d_H    : {d_h:.12g}")
    return EXIT_OK


def _cmd_precondition(args) -> int:
    matrix = read_matrix(args.matrix)
    write_matrix(args.out, polar_decompose(matrix).balanced_part)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig(
        n=args.n,
        m=args.m,
        cone_spec=args.cone,
        trials=args.trials,
        seed=args.seed,
        output_path=args.out,
    )
    records = run_experiment(cfg)
    counts: dict[str, int] = {}
    for record in records:
        counts[record.status] = counts.get(record.status, 0) + 1
    sandwich_failures = sum(1 for r in records if r.status != "error" and not r.sandwich_ok)
    print(f"trials={len(records)} " +
          " ".join(f"{k}={v}" for k, v in sorted(counts.items())) +
          f" sandwich_failures={sandwich_failures}")
    if "error" in counts:
        print(f"numerical failure: {counts['error']} trial(s) recorded as errors", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "distance": _cmd_distance,
    "precondition": _cmd_precondition,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return int(code) if code is not None else EXIT_OK
    except (ConeSpecError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericalFailure, InconsistentClassification) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DimensionError, RankDeficient) as exc:
        print(f"dimension/rank error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
