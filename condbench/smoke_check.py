"""Smoke test of the benchmark: every workload at tiny size, both modes.

Run from the repository root:

    python3 condbench/smoke_check.py

It asserts that every metric named in BENCHMARK.json is printed with
its unit (end-to-end ones with --trace 0, per-layer ones with
--trace 1), that the human-readable lines name the metrics reported
outside the JSON, and that a directory holding only the benchmark
exits nonzero without printing a result.  It is deliberately not named
``test_*.py``: the repository's test suite does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT = 180


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "condbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT,
    )


def check_workload(spec: dict, workload: str) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, workload, trace)
        assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] is True, f"{workload} trace={trace}: {proc.stdout}"
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[section]}
        printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
        assert printed == expected, f"{workload} trace={trace}: {printed} != {expected}"
        for name, entry in result["metrics"].items():
            assert isinstance(entry["value"], (int, float)), (name, entry)
        text = "\n".join(lines[:-1])
        assert lines[0].startswith("env "), lines[0]
        if trace == 0:
            assert "latency_p90_ms" in text and "failed_ratio" in text, text
            assert ("ops_per_s_2w" in text) == (workload == "orthant-ensemble"), text
        print(f"ok {workload} trace={trace}: {len(printed)} metrics")


def check_bare_directory() -> None:
    """Without the library's sources the benchmark must fail, printing no result."""
    bare = BENCH_DIR / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "condbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run(bare, "orthant-report", 0)
        assert proc.returncode != 0, proc.stdout
        assert not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok bare directory exits nonzero without a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # the listed workloads and lorentz-report, which is not listed

    for workload in workloads.NAMES:
        check_workload(spec, workload)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
