"""Command-line harness: plan, run, analyze, sweep.

Exit codes: 0 success, 1 usage/config error (and failed analysis),
2 disconnected security graph, 3 all blocks aborted.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import config_io, eve_analysis, protocol, transcript_io
from .config_io import ConfigError
from .graph_core import DisconnectedGraphError, SecurityGraph, WeightedEdge
from .linear_code import LinearCode
from .rng import SeededRng
from .subroutine import random_efficiency

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DISCONNECTED = 2
EXIT_ALL_ABORTED = 3


def _key_hex(index: int, k: int) -> str:
    return f"{index:0{(k + 3) // 4}x}"


def _protocol_config(spec) -> protocol.ProtocolConfig:
    """ProtocolConfig._make(spec), a fresh config with its own tree.  No
    command calls it; benchmarks/run.py:140 and tests/test_layertrace.py:41
    do."""
    return protocol.ProtocolConfig._make(spec)


def cmd_plan(config: protocol.ProtocolConfig, out=None) -> int:
    tree = config.tree
    try:
        total = str(tree.total_weight)
    except ValueError:  # Python's limit on int-to-text conversion
        raise ValueError(
            f"total weight has more than {sys.get_int_max_str_digits()} digits"
        ) from None
    lines = [f"agents: {config.graph.n}", "minimum spanning security tree:"]
    lines += [f"  edge {e.a} {e.b} weight={e.weight}" for e in tree.edges]
    lines += [f"total weight: {total}", f"terminal agents: {','.join(map(str, tree.terminals))}"]
    print("\n".join(lines), file=out)
    return EXIT_OK


def _summary_lines(results, code: LinearCode) -> List[str]:
    lines = []
    for i, res in enumerate(results):
        status = res.status
        if status == "completed":
            status += " keys=" + ",".join(
                f"{agent}:{_key_hex(idx, code.k)}"
                for agent, idx in sorted(res.key_indices.items())
            )
        mismatch = transcript_io.format_payload("abort", res.mismatch)
        lines.append(f"block={i} status={status} mismatch={mismatch or '-'}")
    return lines


def cmd_run(config: protocol.ProtocolConfig, out_dir: Optional[Path], out=None) -> int:
    results = protocol.run_blocks(config)
    code = config.code
    completed, agreed, _ = protocol.summarize(results)
    completion_rate = Fraction(completed, len(results))
    agreement_rate = Fraction(agreed, completed) if completed else Fraction(0)

    transcript_lines: List[str] = []
    for i, res in enumerate(results):
        transcript_lines.append(f"# block {i}")
        transcript_lines.extend(transcript_io.transcript_lines(res.transcript))

    summary = _summary_lines(results, code)
    bound = protocol.failure_bound(config.delta, config.epsilon, code.m)
    n = config.graph.n
    efficiency_lines = [
        f"n={n} m={code.m} k={code.k}",
        f"pairwise_bits_consumed_per_block={(n - 1) * 2 * code.m}",
        f"key_bits_per_agent_per_block={code.k}",
        f"eta_subroutine={random_efficiency(n)}",
        f"eta_code={protocol.code_efficiency(n, code.k, code.m)}",
        f"failure_bound(delta={config.delta},epsilon={config.epsilon},m={code.m})={bound:.12g}",
    ]
    stats_lines = [
        f"blocks={len(results)}",
        f"completed={completed}",
        f"aborted={len(results) - completed}",
        f"completion_rate={completion_rate}",
        f"agreement_rate={agreement_rate}",
    ]

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "transcript.log").write_text("\n".join(transcript_lines) + "\n")
        (out_dir / "summary.txt").write_text("\n".join(summary) + "\n")
        (out_dir / "efficiency.txt").write_text("\n".join(efficiency_lines) + "\n")
        (out_dir / "stats.txt").write_text("\n".join(stats_lines) + "\n")

    for line in summary + efficiency_lines + stats_lines:
        print(line, file=out)

    if not completed:
        return EXIT_ALL_ABORTED
    return EXIT_OK


def cmd_analyze(transcript_path: Path, config_path: Path, out=None) -> int:
    """Certify a transcript from what an eavesdropper sees: each round's
    terminal_choice must come from the leader and name a terminal, and its
    announcements must leave exactly two configurations.

    Each distinct record is checked against the tree once per call, and
    each distinct count's text is formatted once.  The report is written
    once, after the last block certifies, so an error leaves stdout empty.
    """
    config = config_io.load_config(config_path)
    tree, leader = config.tree, config.leader
    text = config_io.read_text(transcript_path, "transcript line")
    blocks = transcript_io.parse_transcript(config_io.text_lines(text))
    checked: Dict[int, int] = {}  # id(record view) -> its constraints, -1 if invalid
    verdicts: Dict[int, str] = {}  # count -> its report text
    report: List[str] = []
    ok = True
    for b, transcript in enumerate(blocks):
        rounds = eve_analysis.rounds_from_transcript(transcript)
        for r, (announcements, chooser, chosen) in enumerate(rounds):
            if chooser != leader:
                raise ValueError(
                    f"block {b} round {r}: terminal_choice from agent {chooser}, "
                    f"not the leader {leader}"
                )
            if chosen not in tree.terminal_keys:
                raise ValueError(f"block {b} round {r}: agent {chosen} is not terminal")
            count = eve_analysis.consistent_configurations(announcements, tree, checked)
            verdict = verdicts.get(count)
            if verdict is None:
                entropy = eve_analysis.secret_entropy(count)
                verdict = verdicts[count] = f"configurations={count} entropy={entropy:.6f}"
            report.append(f"block {b} round {r}: {verdict}")
            if count != 2:
                ok = False
    if not report:
        raise ValueError("transcript has no rounds")
    report.append(
        f"{'PASS' if ok else 'FAIL'}: {len(report)} rounds, "
        "two-configuration property "
        f"{'holds' if ok else 'violated'}"
    )
    print("\n".join(report), file=out)
    return EXIT_OK if ok else EXIT_CONFIG


def cmd_sweep(
    config: protocol.ProtocolConfig,
    flips: Sequence[float],
    out_dir: Optional[Path],
    out=None,
) -> int:
    bound = protocol.failure_bound(config.delta, config.epsilon, config.code.m)
    rows = ["flip_prob\tabort_rate\tagreement_rate\tmean_check_mismatch\tfailure_bound"]
    for i, flip in enumerate(flips):
        edges = [WeightedEdge(e.a, e.b, e.weight, flip) for e in config.graph.edges]
        step = config._replace(
            graph=SecurityGraph(config.graph.n, edges, config.graph.sources),
            seed=SeededRng(config.seed).substream("sweep", i).seed,
        )
        completed, agreed, fracs = protocol.summarize(protocol.run_blocks(step))
        abort_rate = 1.0 - completed / step.blocks
        agreement_rate = agreed / completed if completed else 0.0
        mismatches = [float(frac) for frac in fracs]
        mean_mismatch = sum(mismatches) / len(mismatches) if mismatches else 0.0
        rows.append(
            f"{flip:.6f}\t{abort_rate:.6f}\t{agreement_rate:.6f}"
            f"\t{mean_mismatch:.6f}\t{bound:.6g}"
        )
    table = "\n".join(rows) + "\n"
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "sweep.tsv").write_text(table)
    print(table, end="", file=out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treekd",
        description="Spanning-tree multiparty key distribution simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=Path, default=None)

    p_plan = sub.add_parser("plan", help="show the minimum spanning security tree")
    p_plan.add_argument("--config", type=Path, required=True)
    add_common(sub.add_parser("run", help="run protocol blocks and write reports"))

    p_analyze = sub.add_parser("analyze", help="eavesdropper-view transcript analysis")
    p_analyze.add_argument("--transcript", type=Path, required=True)
    p_analyze.add_argument("--config", type=Path, required=True,
                           help="run config (or graph) file for the topology")

    p_sweep = sub.add_parser("sweep", help="abort/agreement table over flip_prob")
    add_common(p_sweep)
    p_sweep.add_argument("--flip-min", type=float, required=True)
    p_sweep.add_argument("--flip-max", type=float, required=True)
    p_sweep.add_argument("--flip-steps", type=int, required=True)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK

    try:
        if args.command == "analyze":
            return cmd_analyze(args.transcript, args.config)

        config = config_io.load_config(args.config)
        if args.command == "plan":
            return cmd_plan(config)

        if args.seed is not None:
            config = config._replace(seed=args.seed)
        if args.command == "run":
            return cmd_run(config, args.out)

        # The one command left is sweep.
        if args.flip_steps < 2:
            raise ValueError("--flip-steps must be >= 2")
        # Every point lies between the ends; NaN fails the comparison.
        for option, flip in (("--flip-min", args.flip_min), ("--flip-max", args.flip_max)):
            if not 0.0 <= flip < 0.5:
                raise ValueError(f"{option} {flip} must lie in [0, 0.5)")
        span = args.flip_max - args.flip_min
        flips = [
            args.flip_min + span * i / (args.flip_steps - 1)
            for i in range(args.flip_steps)
        ]
        return cmd_sweep(config, flips, args.out)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DisconnectedGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())
