"""Regenerate the golden outputs that tests/test_analysis.py compares byte for byte.

Run from the repository root, only when an output change is intended:

    PYTHONPATH=src python tests/data/make_golden.py

It writes tests/data/golden_reports.jsonl (one condition report per fixed
or seeded matrix, with and without witnesses),
tests/data/golden_experiment.jsonl (the records of
ExperimentConfig(n=8, m=4, trials=40, seed=0)) and
tests/data/golden_experiment_n12.jsonl (the records of
ExperimentConfig(n=12, m=m, trials=12, seed=0) for m = 6, then m = 9).
"""

import json
import os
from pathlib import Path

from coniccond import ExperimentConfig, condition_report, parse_cone, run_experiment
from coniccond.harness import gaussian_matrix, trial_stream

DATA = Path(__file__).resolve().parent


def gaussian_case(seed, m, n):
    """The Gaussian m x n matrix of trial stream (seed, 0), as nested lists."""
    return gaussian_matrix(trial_stream(seed, 0), m, n).tolist()


# (name, cone spec, matrix): one instance per route through the report.
CASES = (
    ("orthant-dual-strict", "orthant:4", [[1.0, 2.0, 0.5, 1.5], [0.3, -1.0, 1.2, 0.4]]),
    ("orthant-primal-strict", "orthant:4", [[1.0, -2.0, 0.5, 0.0], [0.0, 1.0, -1.5, -0.4]]),
    ("orthant-ill-posed", "orthant:3", [[1.0, 0.0, 0.0], [0.0, 1.0, -1.0]]),
    ("orthant-balanced-dual", "orthant:4", [[0.5, 0.5, 0.5, 0.5], [0.5, -0.5, 0.5, -0.5]]),
    ("orthant-balanced-primal", "orthant:4", [[0.5, -0.5, 0.5, -0.5], [0.5, 0.5, -0.5, -0.5]]),
    ("lorentz-4-primal", "lorentz:4", [[1.0, 0.2, -0.3, 0.1], [0.0, 1.0, 0.5, 0.2]]),
    ("lorentz-4-dual", "lorentz:4", [[0.1, 0.0, 0.2, 1.0], [0.0, 1.0, 0.1, 0.3]]),
    ("product-dual-strict", "product(orthant:2,orthant:3)",
     [[1.0, 2.0, 0.5, 1.5, 0.7], [0.3, -1.0, 1.2, 0.4, -0.2]]),
    ("product-primal-strict", "product(orthant:2,orthant:3)",
     [[1.0, -2.0, 0.5, 0.0, -0.3], [0.0, 1.0, -1.5, -0.4, 0.8]]),
    # The strict side W_perp has dimension 9, too large for the realizable
    # table, so its maximum takes the full route capped at 12 - 9 coordinates.
    ("orthant-12-dual-strict", "orthant:12",
     [[1.0, 0.5, 2.0, 0.3, 1.2, 0.8, 1.5, 0.2, 0.9, 1.1, 0.6, 1.4],
      [0.4, -1.0, 0.7, 1.3, -0.5, 0.2, -1.2, 0.9, 0.1, -0.3, 1.0, -0.8],
      [-0.6, 0.3, -0.2, 0.5, 1.1, -1.4, 0.4, -0.7, 1.2, 0.8, -0.9, 0.1]]),
    # Wide GCC caps: the smallest enclosing cap of the columns is supported
    # by 5, 5, 6 and 7 of them, with radius below pi/2 on the dual strict
    # cases and above it on the primal strict ones.
    ("orthant-5x10-dual-strict", "orthant:10", gaussian_case(1, 5, 10)),
    ("orthant-5x10-primal-strict", "orthant:10", gaussian_case(2, 5, 10)),
    ("orthant-7x10-dual-strict", "orthant:10", gaussian_case(0, 7, 10)),
    ("orthant-7x10-primal-strict", "orthant:10", gaussian_case(74, 7, 10)),
    # Wide caps of the wide route at more orthant-report shapes, each
    # supported by m columns with radius above pi/2.
    ("orthant-2x6-primal-strict", "orthant:6", gaussian_case(0, 2, 6)),
    ("orthant-3x8-primal-strict", "orthant:8", gaussian_case(0, 3, 8)),
    ("orthant-3x10-primal-strict", "orthant:10", gaussian_case(0, 3, 10)),
)
EXPERIMENT = dict(n=8, m=4, trials=40, seed=0)
# Dual strict trials at n = 12 take the pruned, rank-capped dual-route minimum.
EXPERIMENT_N12 = tuple(dict(n=12, m=m, trials=12, seed=0) for m in (6, 9))


def report_lines():
    for name, spec, matrix in CASES:
        for witnesses in (False, True):
            report = condition_report(parse_cone(spec), matrix, include_witnesses=witnesses)
            yield json.dumps({"name": name, "cone": spec, "matrix": matrix,
                              "witnesses": witnesses,
                              "report": json.dumps(report, sort_keys=True)}) + "\n"


def experiment_n12_lines():
    for config in EXPERIMENT_N12:
        for record in run_experiment(ExperimentConfig(**config)):
            yield json.dumps(record.to_json(), sort_keys=True) + "\n"


def main():
    (DATA / "golden_reports.jsonl").write_text("".join(report_lines()), encoding="utf-8")
    os.environ.pop("CONIC_COND_THREADS", None)
    run_experiment(ExperimentConfig(**EXPERIMENT,
                                    output_path=str(DATA / "golden_experiment.jsonl")))
    (DATA / "golden_experiment_n12.jsonl").write_text("".join(experiment_n12_lines()),
                                                      encoding="utf-8")


if __name__ == "__main__":
    main()
