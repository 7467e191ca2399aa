"""Hash the benchmark's outputs, to show that a change keeps every output's bytes.

Run from the repository root:

    python3 tools/byte_identity.py

For each of seeds 1, 2 and 3 it prints the sha256 of the orthant-report
outputs of operations 0 .. 899 (with witnesses, as the benchmark runs
them) and of the orthant-ensemble outputs of chunks 0 .. 119, once at 1
worker and once at 2.  These are the ranges of every BENCH file's
byte_identity block, so the hashes compare with them directly.  Each
hash is over one line per output, the output in condbench/run.py's
_comparable form (JSON with sorted keys, a chunk's records as one JSON
list).  Progress goes to standard error; standard
output ends with one JSON object mapping "report seed S", "ensemble
seed S 1w" and "ensemble seed S 2w" to their hashes.  Run it on two
checkouts and compare the objects.

The hashes follow the BLAS build and the machine's instruction set, so
compare runs from one machine only.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
REPORTS = 900
CHUNKS = 120


def _digest(outputs, comparable) -> str:
    sha = hashlib.sha256()
    for output in outputs:
        sha.update((comparable(output) + "\n").encode())
    return sha.hexdigest()


def hashes() -> dict[str, str]:
    """The report and ensemble hashes of every seed, keyed as above."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "condbench")]
    # No bytecode cache in the checkout: the benchmark's setup_s reads whether one is there.
    sys.dont_write_bytecode = True
    import workloads
    from run import _comparable, _threads

    out = {}
    for seed in SEEDS:
        report = workloads.build("orthant-report", seed)
        out[f"report seed {seed}"] = _digest((report.run(i) for i in range(REPORTS)),
                                             _comparable)
        ensemble = workloads.build("orthant-ensemble", seed)
        for workers in ("1", "2"):
            with _threads(workers):
                out[f"ensemble seed {seed} {workers}w"] = _digest(
                    (ensemble.run(i) for i in range(CHUNKS)), _comparable)
        for key in (f"report seed {seed}", f"ensemble seed {seed} 1w",
                    f"ensemble seed {seed} 2w"):
            print(f"{key}: {out[key]}", file=sys.stderr, flush=True)
    return out


def main() -> int:
    # One BLAS thread, as the benchmark runs; set before numpy is imported.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    print(json.dumps(hashes(), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
