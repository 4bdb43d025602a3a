"""Checks that the benchmark's own checks catch what they should.

    python3 benchmarks/selftest.py

Kept out of the pytest suite on purpose: it runs the benchmark (about two
minutes).  It asserts that

1. every workload runs with fail_ratio 0, end-to-end and traced, and every
   per-layer metric but trace.absent is non-zero on at least one workload;
2. a deliberately wrong golden digest makes fail_ratio > 0;
3. in a directory holding only BENCHMARK.json and the benchmark, without
   the sources, run.py exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work" / "selftest"


def run(workload: str, trace: int = 0, cwd: Path = ROOT, *extra: str):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]

    nonzero = set()
    for name in names:
        for trace, wanted in ((0, "end_to_end"), (1, "per_layer")):
            proc, result = run(name, trace)
            assert proc.returncode == 0 and result, proc.stderr
            assert result["correct"] and result["failed"] == 0, proc.stdout
            assert set(result["metrics"]) == {m["name"] for m in bench[wanted]}
            nonzero |= {k for k, v in result["metrics"].items() if v["value"]}
            print(f"ok: {name} trace={trace}, {result['attempted']} operations checked")
    # trace.absent counts wrapped names missing from the code: 0 by design.
    idle = {m["name"] for m in bench["per_layer"]} - nonzero - {"trace.absent"}
    assert not idle, f"per-layer metrics zero on every workload: {sorted(idle)}"

    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    wrong = golden[names[-1]]
    key = sorted(wrong)[0]
    wrong[key] = ("0" if wrong[key][0] != "0" else "1") + wrong[key][1:]
    (WORK / "wrong-golden.json").write_text(json.dumps(golden))
    proc, result = run(names[-1], 0, ROOT, "--golden", str(WORK / "wrong-golden.json"))
    assert proc.returncode == 0 and result, proc.stderr
    assert not result["correct"] and result["failed"] > 0, result
    print(f"ok: wrong golden digest gives fail_ratio "
          f"{result['failed']}/{result['attempted']}")

    bare = WORK / "bare"
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc, result = run(names[0], 0, bare)
    assert proc.returncode != 0 and result is None, proc.stdout
    print(f"ok: without sources run.py exits {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
