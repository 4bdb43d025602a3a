"""End-to-end blocks: pairwise KD, rounds, check bits, abort, reconciliation.

A block runs 2m positions along the minimum spanning tree.  Half the
positions (chosen by the leader) are publicly compared as check bits and
discarded; the other half form each agent's code-bit string v.  The leader
broadcasts c XOR v for a random codeword c, every other agent XORs in its
own copy and decodes, and the shared key is the codeword's index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .bits import BitString
from .channel_sim import Transcript, broadcast, simulate_pairwise_kd
from .graph_core import SecurityGraph, SpanningTree, mst_kruskal, validate_graph
from .linear_code import LinearCode, decode_to_codeword, index_of, random_codeword
from .rng import SeededRng
from .subroutine import random_efficiency, subroutine_round


class InvalidGraphError(Exception):
    """The protocol refuses to run on an invalid security graph."""


@dataclass(frozen=True)
class ProtocolConfig:
    graph: SecurityGraph
    leader: int
    code: LinearCode
    blocks: int
    delta: float
    epsilon: float
    seed: int

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and positive")
        if not (0 <= self.leader < self.graph.n):
            raise ValueError("leader out of range")
        if self.blocks < 1:
            raise ValueError("blocks must be >= 1")

    @cached_property
    def tree(self) -> SpanningTree:
        """The validated graph's minimum spanning tree, built on first use."""
        report = validate_graph(self.graph)
        if not report.ok:
            raise InvalidGraphError("; ".join(report.violations))
        return mst_kruskal(self.graph)


@dataclass(frozen=True)
class EfficiencyReport:
    """Exact resource accounting for one completed block.

    eta_code counts, as the paper's formula does, only the m code-bit
    rounds that are turned into key material; the m check rounds are
    consumed but excluded from the yield ratio.
    """

    n: int
    m: int
    k: int
    pairwise_bits_consumed: int
    key_bits_per_agent: int
    eta_subroutine: Fraction
    eta_code: Fraction


@dataclass(frozen=True)
class AbortDecision:
    abort: bool
    mismatch: Mapping[int, Fraction]


@dataclass(frozen=True)
class KeyResult:
    status: str  # "completed" | "aborted"
    key_indices: Optional[Dict[int, int]]
    mismatch: Mapping[int, Fraction]
    transcript: Transcript


def random_efficiency_report(n: int, code: LinearCode) -> EfficiencyReport:
    return EfficiencyReport(
        n=n,
        m=code.m,
        k=code.k,
        pairwise_bits_consumed=(n - 1) * 2 * code.m,
        key_bits_per_agent=code.k,
        eta_subroutine=random_efficiency(n),
        eta_code=code_efficiency(n, code.k, code.m),
    )


def code_efficiency(n: int, k: int, m: int) -> Fraction:
    """Key yield of the full protocol: kn/(2m(n-1)), limit (1/2)k/m."""
    if n < 2:
        raise ValueError("need at least two agents")
    return Fraction(k * n, 2 * m * (n - 1))


def failure_bound(delta: float, epsilon: float, nbits: int) -> float:
    """exp(-eps^2 * nbits / (4 (delta - delta^2))), the asymptotic estimate
    of seeing few check errors yet many code errors."""
    variance = delta - delta * delta
    if variance <= 0.0:
        raise ValueError("delta - delta^2 must be positive")
    if nbits < 1:
        raise ValueError("nbits must be >= 1")
    return math.exp(-0.25 * epsilon * epsilon * nbits / variance)


def select_check_positions(rng: SeededRng, total: int) -> Tuple[int, ...]:
    """A uniform half-size subset of [0, total), returned sorted."""
    if total % 2 != 0:
        raise ValueError("total must be even (2m positions)")
    m = total // 2
    return tuple(sorted(rng.sample(range(total), m)))


def decide_abort(
    check_values: Mapping[int, BitString], leader: int, delta: float
) -> AbortDecision:
    """Abort iff any agent's mismatch fraction vs the leader strictly
    exceeds delta; exactly delta proceeds."""
    reference = check_values[leader]
    m = len(reference)
    mismatch: Dict[int, Fraction] = {}
    for agent, bits in check_values.items():
        if agent == leader:
            continue
        mismatch[agent] = Fraction(reference.hamming(bits), m)
    abort = any(frac > delta for frac in mismatch.values())
    return AbortDecision(abort=abort, mismatch=mismatch)


def reconcile(
    leader_codebits: BitString,
    code: LinearCode,
    rng: SeededRng,
    agent_codebits: Mapping[int, BitString],
    transcript: Transcript,
    leader: int,
) -> Dict[int, int]:
    """Code-based reconciliation: broadcast c XOR v, decode, output index."""
    index, codeword = random_codeword(code, rng)
    masked = codeword ^ leader_codebits
    broadcast(transcript, leader, "code_broadcast", masked)
    indices: Dict[int, int] = {leader: index}
    for agent, bits in agent_codebits.items():
        if agent == leader:
            continue
        received = masked ^ bits  # = codeword XOR error vector
        decoded, _ = decode_to_codeword(code, received)
        indices[agent] = index_of(code, decoded)
    return indices


@dataclass(frozen=True)
class BlockState:
    """Intermediate state after the 2m rounds, before the check phase."""

    secret_strings: Dict[int, BitString]  # per agent, length 2m
    transcript: Transcript


def run_rounds(
    config: ProtocolConfig, block_index: int, positions: int
) -> BlockState:
    """Steps 1-3: pairwise KD on the tree and `positions` subroutine rounds.

    Each edge's a-side and b-side strings are held as int words, position
    0 in the most significant bit.  The leader reconstructs once per round;
    every agent j's string is the leader's XOR P[leader] XOR P[j], where
    P[v] is the XOR of the disagreement words A ^ B on the tree path from
    agent 0 to v, built once per block.
    """
    tree = config.tree
    rng = SeededRng(config.seed).substream("block", block_index)

    words: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for edge in tree.edges:
        edge_rng = rng.substream("edge", edge.a, edge.b)
        a, b = simulate_pairwise_kd(edge, positions, edge_rng)
        words[edge.key] = (a.value, b.value)
    parity = [0] * tree.n
    for v, parent, key in tree.parent_edges():
        a, b = words[key]
        parity[v] = parity[parent] ^ a ^ b

    transcript = Transcript()
    leader_word = 0
    for r in range(positions):
        leader_word = leader_word << 1 | subroutine_round(
            tree,
            words,
            rng.substream("round", r),
            transcript,
            config.leader,
            positions - 1 - r,
        )
    base = leader_word ^ parity[config.leader]
    strings = {
        agent: BitString(base ^ parity[agent], positions) for agent in range(tree.n)
    }
    return BlockState(secret_strings=strings, transcript=transcript)


def run_block(config: ProtocolConfig, block_index: int = 0) -> KeyResult:
    """One full block: rounds, check phase, abort decision, reconciliation.

    A completed block's key is the codeword index each agent decoded; for
    these systematic codes the key bits are the index's k bits.
    """
    m, leader = config.code.m, config.leader
    state = run_rounds(config, block_index, 2 * m)
    strings, transcript = state.secret_strings, state.transcript
    rng = SeededRng(config.seed).substream("block", block_index)

    check_positions = select_check_positions(rng.substream("check"), 2 * m)
    broadcast(transcript, leader, "check_positions", check_positions)
    check_values = {agent: bits.take(check_positions) for agent, bits in strings.items()}
    for agent, bits in check_values.items():
        broadcast(transcript, agent, "check_values", bits)
    decision = decide_abort(check_values, leader, config.delta)
    if decision.abort:
        broadcast(transcript, leader, "abort", dict(decision.mismatch))
        return KeyResult("aborted", None, decision.mismatch, transcript)

    code_positions = sorted(set(range(2 * m)).difference(check_positions))
    codebits = {agent: bits.take(code_positions) for agent, bits in strings.items()}
    indices = reconcile(
        codebits[leader], config.code, rng.substream("code"), codebits, transcript, leader
    )
    return KeyResult("completed", indices, decision.mismatch, transcript)


def run_blocks(config: ProtocolConfig) -> List[KeyResult]:
    return [run_block(config, i) for i in range(config.blocks)]


@dataclass(frozen=True)
class BlockSummary:
    """Counts over a run's blocks; mismatches in block, then agent, order."""

    blocks: int
    completed: int
    agreed: int  # completed blocks whose agents all hold the same key
    mismatches: Tuple[Fraction, ...]


def summarize(results: Sequence[KeyResult]) -> BlockSummary:
    completed = [r for r in results if r.status == "completed"]
    return BlockSummary(
        blocks=len(results),
        completed=len(completed),
        agreed=sum(1 for r in completed if len(set(r.key_indices.values())) == 1),
        mismatches=tuple(frac for r in results for frac in r.mismatch.values()),
    )
