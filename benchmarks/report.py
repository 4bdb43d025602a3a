"""Print every metric of every workload, with its unit and sample count.

    python3 benchmarks/report.py [--trace 1]

Runs benchmarks/run.py once per workload of BENCHMARK.json, one after the
other, at seed 1 for BENCHMARK.json's run_seconds, and prints each run's
report without its JSON result line.  --trace 1 prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    for workload in bench["workloads"]:
        proc = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", workload["name"],
             "--seed", str(SEED), "--seconds", str(bench["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) if proc.returncode == 0 else proc.stderr)
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
