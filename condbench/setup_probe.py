"""Cold start of one workload, timed from outside by run.py.

A fresh interpreter imports coniccond and coniccond.cli, builds the
workload's cones and generates its inputs, then exits.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    import coniccond  # noqa: F401
    import coniccond.cli  # noqa: F401
    import workloads

    workloads.build(args.workload, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
