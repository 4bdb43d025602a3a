"""The three benchmark workloads: seeded inputs, one command call, output checks.

Each workload drives one public ``treekd.cli`` command function in-process.
Commands are looked up on the ``treekd.cli`` module at call time, so the
layer trace can wrap them.  ``check`` returns the indices of the operations
(blocks, or rounds for analyze) that failed, with one message per problem.
"""

from __future__ import annotations

import hashlib
import heapq
import io
import random
import re
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from treekd import cli, config_io
from treekd.graph_core import mst_kruskal, terminal_agents
from treekd.transcript_io import parse_transcript, transcript_lines

Failures = Tuple[Set[int], List[str]]


def tree_config(
    seed: int,
    label: str,
    n: int,
    flip: Tuple[float, float],
    params: Dict[str, object],
) -> str:
    """A connected n-agent run config: a random spanning tree plus n//2 chords.

    The tree is decoded from a shuffled Pruefer sequence whose multiset is
    fixed per label, so every seed gives a different tree with the same
    degree sequence: the same number of announcing agents per round, hence
    nearly the same work.  Chords are heavier than tree edges, so Kruskal
    sorts and rejects them all.  About a fifth of the edges are
    anti-correlated.
    """
    shape = random.Random(f"{label}:shape")
    rng = random.Random(f"{label}:{seed}")
    labels = list(range(n))
    rng.shuffle(labels)
    sequence = [labels[shape.randrange(n)] for _ in range(n - 2)]
    rng.shuffle(sequence)
    degree = [1] * n
    for v in sequence:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    pairs = []
    for v in sequence:
        pairs.append(tuple(sorted((heapq.heappop(leaves), v))))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    pairs.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    tree_edges = len(pairs)
    seen = set(pairs)
    while len(pairs) < tree_edges + min(n // 2, n * (n - 1) // 2 - tree_edges):
        a, b = sorted(rng.sample(range(n), 2))
        if (a, b) not in seen:
            seen.add((a, b))
            pairs.append((a, b))
    lines = [f"node {v}" for v in range(n)] + [f"source {v}" for v in range(n)]
    for i, (a, b) in enumerate(pairs):
        weight = rng.randint(1, 5) if i < tree_edges else rng.randint(6, 9)
        anti = " anti" if rng.random() < 0.2 else ""
        lines.append(
            f"edge {a} {b} weight={weight} flip={rng.uniform(*flip):.6f}{anti}"
        )
    lines += [f"param {key}={value}" for key, value in params.items()]
    lines.append(f"param seed={seed}")
    return "\n".join(lines) + "\n"


def transcript_round_trip(text: str) -> bool:
    """parse_transcript -> transcript_lines reproduces the log byte for byte."""
    lines: List[str] = []
    for i, block in enumerate(parse_transcript(text.splitlines())):
        lines.append(f"# block {i}")
        lines.extend(transcript_lines(block))
    return "\n".join(lines) + "\n" == text


class Workload:
    name = ""
    agents = 0
    rounds_per_block = 0
    blocks = 0  # protocol blocks per command call
    output_files: Tuple[str, ...] = ()
    spec = None  # the loaded config, set once before timed calls

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = self.dir / "config.txt"
        self.out = self.dir / "out"
        self.config.write_text(self.config_text())

    @property
    def ops(self) -> int:
        """Operations per command call: blocks, or rounds for analyze."""
        return self.blocks

    @property
    def setup_config(self) -> Optional[Path]:
        """The config main() loads before dispatching, if any."""
        return self.config

    def config_text(self) -> str:
        raise NotImplementedError

    def setup(self):
        """What main() does before it dispatches, besides the import."""
        return config_io.load_config(self.config)

    def call(self, spec) -> Tuple[int, str]:
        raise NotImplementedError

    def outputs(self, stdout: str) -> Dict[str, bytes]:
        files = {name: (self.out / name).read_bytes() for name in self.output_files}
        files["stdout"] = stdout.encode()
        return files

    def digests(self, stdout: str) -> Dict[str, str]:
        return {
            name: hashlib.sha256(data).hexdigest()
            for name, data in self.outputs(stdout).items()
        }

    def check(self, code: int, stdout: str) -> Failures:
        raise NotImplementedError


class RunTree100(Workload):
    """treekd run --out on a 100-agent graph, Hamming [7,4], low flip."""

    name = "run_tree100"
    agents = 100
    rounds_per_block = 14
    blocks = 4
    output_files = ("transcript.log", "summary.txt", "efficiency.txt", "stats.txt")

    def config_text(self) -> str:
        return tree_config(
            self.seed, self.name, self.agents, (0.0005, 0.0015),
            {"code": "hamming7_4", "blocks": self.blocks, "delta": 0.2},
        )

    def call(self, spec) -> Tuple[int, str]:
        buf = io.StringIO()
        return cli.cmd_run(spec, self.out, out=buf), buf.getvalue()

    def check(self, code: int, stdout: str) -> Failures:
        everything = set(range(self.blocks))
        files = {n: d.decode() for n, d in self.outputs(stdout).items()}
        stats = dict(line.split("=", 1) for line in files["stats.txt"].splitlines())
        completed = int(stats.get("completed", -1))
        problems: List[str] = []
        if stats.get("blocks") != str(self.blocks) or not 0 <= completed <= self.blocks:
            problems.append(f"stats.txt: {stats}")
        if code != (cli.EXIT_OK if completed > 0 else cli.EXIT_ALL_ABORTED):
            problems.append(f"exit code {code} with {completed} completed blocks")
        if stdout != files["summary.txt"] + files["efficiency.txt"] + files["stats.txt"]:
            problems.append("stdout differs from the report files")
        if not transcript_round_trip(files["transcript.log"]):
            problems.append("transcript.log does not round-trip")
        if problems:
            return everything, problems

        failed: Set[int] = set()
        statuses = [
            re.match(r"block=(\d+) status=(\w+)", line).group(2)
            for line in files["summary.txt"].splitlines()
        ]
        if statuses.count("completed") != completed or len(statuses) != self.blocks:
            return everything, ["summary.txt disagrees with stats.txt"]
        spec = config_io.parse_config(self.config.read_text())
        tree = mst_kruskal(spec.graph)
        announcers = self.agents - len(terminal_agents(tree))
        blocks = parse_transcript(files["transcript.log"].splitlines())
        for i, (block, status) in enumerate(zip(blocks, statuses)):
            kinds = [m.kind for m in block.messages]
            last = "code_broadcast" if status == "completed" else "abort"
            if (
                kinds.count("terminal_choice") != self.rounds_per_block
                or kinds.count("announcement") != announcers * self.rounds_per_block
                or kinds[-1] != last
            ):
                failed.add(i)
                problems.append(f"block {i}: unexpected transcript shape")
        if len(blocks) != self.blocks:
            return everything, problems + [f"{len(blocks)} blocks in transcript.log"]
        return failed, problems


class SweepTree4Rep15(Workload):
    """treekd sweep --out on 4 agents with repetition15, flip 0 .. 0.2."""

    name = "sweep_tree4_rep15"
    agents = 4
    rounds_per_block = 30
    blocks = 500  # flip steps x blocks per step
    # As `treekd sweep --flip-min 0 --flip-max 0.2 --flip-steps 5` computes them.
    flips = [0.0 + 0.2 * i / 4 for i in range(5)]
    steps = len(flips)
    output_files = ("sweep.tsv",)

    def config_text(self) -> str:
        return tree_config(
            self.seed, self.name, self.agents, (0.0, 0.01),
            {"code": "repetition15", "blocks": self.blocks // self.steps, "delta": 0.1},
        )

    def call(self, spec) -> Tuple[int, str]:
        buf = io.StringIO()
        return cli.cmd_sweep(spec, self.flips, self.out, out=buf), buf.getvalue()

    def check(self, code: int, stdout: str) -> Failures:
        everything = set(range(self.blocks))
        table = self.outputs(stdout)["sweep.tsv"].decode()
        rows = table.splitlines()
        if code != cli.EXIT_OK or table != stdout or len(rows) != self.steps + 1:
            return everything, [f"exit code {code} or malformed sweep table"]
        per_step = self.blocks // self.steps
        failed: Set[int] = set()
        problems: List[str] = []
        for i, (flip, row) in enumerate(zip(self.flips, rows[1:])):
            fields = row.split("\t")
            values = [float(x) for x in fields[1:4]]
            ok = (
                len(fields) == 5
                and fields[0] == f"{flip:.6f}"
                and all(0.0 <= v <= 1.0 for v in values)
                # Noiseless links: nothing aborts and every key agrees.
                and (i > 0 or values == [0.0, 1.0, 0.0])
            )
            if not ok:
                failed.update(range(i * per_step, (i + 1) * per_step))
                problems.append(f"sweep row {i}: {row!r}")
        return failed, problems


class AnalyzeTree14(Workload):
    """treekd analyze on the transcript of a 14-agent run."""

    name = "analyze_tree14"
    agents = 14
    rounds_per_block = 14
    blocks = 4
    output_files = ()

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.transcript = self.out / "transcript.log"
        status = cli.cmd_run(config_io.load_config(self.config), self.out, out=io.StringIO())
        if status != cli.EXIT_OK:
            raise RuntimeError(f"{self.name}: generating the transcript exited {status}")

    @property
    def ops(self) -> int:
        return self.blocks * self.rounds_per_block

    @property
    def setup_config(self) -> Optional[Path]:
        return None

    def config_text(self) -> str:
        return tree_config(
            self.seed, self.name, self.agents, (0.005, 0.015),
            {"code": "hamming7_4", "blocks": self.blocks, "delta": 0.3},
        )

    def setup(self):
        return None

    def call(self, spec) -> Tuple[int, str]:
        buf = io.StringIO()
        return cli.cmd_analyze(self.transcript, self.config, out=buf), buf.getvalue()

    def check(self, code: int, stdout: str) -> Failures:
        everything = set(range(self.ops))
        lines = stdout.splitlines()
        if len(lines) != self.ops + 1:
            return everything, [f"{len(lines)} report lines for {self.ops} rounds"]
        if not transcript_round_trip(self.transcript.read_text()):
            return everything, ["transcript.log does not round-trip"]
        failed = {
            i for i, line in enumerate(lines[:-1])
            if line != "block {} round {}: configurations=2 entropy=1.000000".format(
                *divmod(i, self.rounds_per_block)
            )
        }
        if failed:  # the command then reports FAIL and exits 1 by design
            return failed, [f"{len(failed)} rounds not certified"]
        passed = f"PASS: {self.ops} rounds, two-configuration property holds"
        if code != cli.EXIT_OK or lines[-1] != passed:
            return everything, [f"exit code {code}, last line {lines[-1]!r}"]
        return failed, []


WORKLOADS = {w.name: w for w in (RunTree100, SweepTree4Rep15, AnalyzeTree14)}
