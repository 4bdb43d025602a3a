"""treekd benchmark: one workload run, end-to-end or traced.

    python3 benchmarks/run.py --workload run_tree100 --seed 1 --seconds 20 --trace 0

Runs from the repository root and imports treekd from ``src/``.  With
``--trace 0`` it measures the end-to-end metrics of BENCHMARK.json with
tracing off; with ``--trace 1`` it measures the per-layer metrics with the
layer trace and the scaling probe.  Every command call's outputs are
checked; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 7
PROBE_SIZES = {3: 30, 10: 15, 30: 7, 100: 3}  # agents -> blocks timed

# Times what main() does before it dispatches, in a fresh interpreter.
SETUP_CODE = """
import sys, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import treekd.cli
if sys.argv[2]:
    treekd.config_io.load_config(Path(sys.argv[2]))
print(repr(time.perf_counter() - start))
"""


class Tally:
    """Attempted and failed operations, with the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, ops: int, failed_ops, problems) -> None:
        self.attempted += ops
        self.failed += len(failed_ops)
        self.problems.extend(problems)


def timed_call(case, tally, with_setup=False, expected=None, run=None):
    """One checked command call; returns (seconds, output digests or None)."""
    gc.collect()
    def body():
        start = time.perf_counter()
        spec = case.setup() if with_setup else case.spec
        code, stdout = case.call(spec)
        return time.perf_counter() - start, code, stdout
    try:
        elapsed, code, stdout = run(body) if run else body()
    except Exception:
        tally.add(case.ops, range(case.ops), [traceback.format_exc(limit=3)])
        return math.nan, None
    try:
        failed, problems = case.check(code, stdout)
        digests = case.digests(stdout)
    except Exception:
        tally.add(case.ops, range(case.ops), [traceback.format_exc(limit=3)])
        return elapsed, None
    if expected is not None and digests != expected:
        wrong = sorted(k for k in set(digests) | set(expected)
                       if digests.get(k) != expected.get(k))
        failed = range(case.ops)
        problems = problems + [f"digest mismatch in {wrong}: got {digests}"]
    tally.add(case.ops, failed, problems)
    return elapsed, digests


def measure_setup(case) -> float:
    config = case.setup_config
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(config or "")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def end_to_end(case, seconds: float, tally) -> tuple:
    """Alternate set-ups and command calls until `seconds` have passed.

    Interleaving spreads both kinds of sample over the whole run.  The
    host's speed drifts by up to a quarter within seconds, so rates and the
    call part of wall_s are run-long means over all calls, which vary less
    from run to run than the median of the ten-odd calls a run holds.
    """
    case.spec = case.setup()
    setups, times = [], []
    start = time.perf_counter()
    while len(setups) < SETUP_REPS or time.perf_counter() - start < seconds:
        setups.append(measure_setup(case))
        times.append(timed_call(case, tally)[0])
    good = [t for t in times if not math.isnan(t)]
    calls, busy = len(good), sum(good) or math.inf
    setup_s = statistics.median(setups)
    rounds = case.blocks * case.rounds_per_block
    raw = {"setup_s": setups, "call_s": times}
    return raw, {
        "setup_s": (setup_s, len(setups)),
        "blocks_per_s": (case.blocks * calls / busy, calls),
        "rounds_per_s": (rounds * calls / busy, calls),
        "wall_s": (setup_s + busy / max(calls, 1), calls),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def scaling_probe(seed: int) -> dict:
    """Median run_block time per agent count, and the log-log slope."""
    from treekd import cli, config_io, protocol
    from workloads import tree_config

    out = {}
    for n, reps in PROBE_SIZES.items():
        spec = config_io.parse_config(tree_config(
            seed, "probe", n, (0.0005, 0.0015),
            {"code": "hamming7_4", "blocks": reps, "delta": 0.2},
        ))
        config = cli._protocol_config(spec)
        times = []
        for i in range(reps):
            gc.collect()
            start = time.perf_counter()
            protocol.run_block(config, i)
            times.append(time.perf_counter() - start)
        out[n] = 1000.0 * statistics.median(times)
    xs = [math.log(n) for n in out]
    ys = [math.log(ms) for ms in out.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )
    metrics = {f"protocol.run_block.ms_n{n}": (ms, PROBE_SIZES[n]) for n, ms in out.items()}
    metrics["protocol.run_block.n_exponent"] = (slope, len(out))
    return metrics


def traced(case, seconds: float, tally, work: Path, seed: int) -> tuple:
    """Alternate untraced and traced calls of the same input until `seconds`
    have passed; per-layer values are medians over the traced calls."""
    from layertrace import Tracer, median_of, tail

    tracer = Tracer()
    plain, with_trace = [], []
    start = time.perf_counter()
    while not with_trace or time.perf_counter() - start < seconds:
        elapsed, digests = timed_call(case, tally, with_setup=True)
        plain.append(elapsed)
        call_id = len(with_trace)
        elapsed, traced_digests = timed_call(
            case, tally, with_setup=True, expected=digests,
            run=lambda body: tracer.record(call_id, body),
        )
        with_trace.append(elapsed)
        log = case.out / "transcript.log"
        if "transcript.log" in case.output_files and log.exists():
            tracer.counts[call_id]["transcript_io.bytes_written"] = log.stat().st_size
    tracer.write(work / "spans.tsv")

    rows = list(tracer.per_call().values())
    calls = len(rows)
    metrics = {
        key: (median_of(rows, key), calls) for key in set().union(*rows)
    }

    blocks = tracer.durations("protocol.run_block")
    if blocks:
        p50, (tail_s, tail_pct) = statistics.median(blocks), tail(blocks)
    else:
        p50, tail_s, tail_pct = 0.0, 0.0, 0.0
    metrics["protocol.run_block.p50_ms"] = (1000.0 * p50, len(blocks))
    metrics["protocol.run_block.tail_ms"] = (1000.0 * tail_s, len(blocks))
    metrics["protocol.run_block.tail_pct"] = (tail_pct, len(blocks))
    metrics["protocol.run_block.samples"] = (len(blocks), len(blocks))
    block_calls = sum(r.get("protocol.run_block.calls", 0) for r in rows)
    completed = sum(r.get("protocol.run_block.completed", 0) for r in rows)
    metrics["protocol.completed_ratio"] = (
        completed / block_calls if block_calls else 0.0, block_calls
    )
    metrics["trace.overhead_s"] = (
        statistics.median(with_trace) - statistics.median(plain), calls
    )
    metrics["trace.calls"] = (calls, calls)
    absent = list(tracer.absent)
    try:
        metrics.update(scaling_probe(seed))
    except Exception as exc:
        # A later API change must not cost the run its per-layer metrics.
        absent.append(f"scaling probe ({type(exc).__name__}: {exc})")
    metrics["trace.absent"] = (len(absent), len(absent))
    if absent:
        print("absent from the code, reported as 0:", ", ".join(absent))
    return {"untraced_call_s": plain, "traced_call_s": with_trace}, metrics


def machine_info(seed: int) -> dict:
    sha = "unknown"  # a checkout without .git records only the source digest
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or sha
        except OSError:
            pass
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    source = sorted(p for p in (SRC / "treekd").rglob("*.py"))
    digest = hashlib.sha256(
        b"".join(p.read_bytes() for p in source)
    ).hexdigest()
    return {
        "git_sha": sha, "source_sha256": digest,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu, "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", type=Path, default=BENCH_DIR / "golden.json",
                        help="reference output digests at the golden seed")
    args = parser.parse_args(argv)

    if not (SRC / "treekd" / "__init__.py").is_file():
        print(f"error: no treekd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import treekd
    if Path(treekd.__file__).resolve().parent != SRC / "treekd":
        print(f"error: imported treekd from {treekd.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    tally = Tally()
    golden = json.loads(args.golden.read_text())
    reference = workload(golden["seed"], work / "golden")
    reference.spec = reference.setup()
    timed_call(reference, tally, expected=golden[args.workload])

    case = workload(args.seed, work / "case")
    if args.trace:
        raw, measured = traced(case, args.seconds, tally, work, args.seed)
        wanted = bench["per_layer"]
    else:
        raw, measured = end_to_end(case, args.seconds, tally)
        wanted = bench["end_to_end"]

    info = machine_info(args.seed)
    print(f"workload {case.name} seed {args.seed}: {case.blocks} blocks of "
          f"{case.rounds_per_block} rounds per command call")
    metrics = {}
    for m in wanted:
        # A traced name absent from this code, or idle in this workload, is 0.
        value, samples = measured.get(m["name"], (0.0, 0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:48s} {value:14.6g} {m['unit']:8s} samples={samples}")
    print(f"  {'fail_ratio':48s} {tally.failed / tally.attempted:14.6g} "
          f"{'ratio':8s} failed={tally.failed} attempted={tally.attempted}")
    for problem in tally.problems[:20]:
        print(f"  check failed: {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = dict(result, machine=info, raw=raw,
                  samples={k: v[1] for k, v in measured.items()})
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print("machine " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
