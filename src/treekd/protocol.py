"""End-to-end blocks: pairwise KD, rounds, check bits, abort, reconciliation.

A block runs 2m positions along the minimum spanning tree.  Half the
positions (chosen by the leader) are publicly compared as check bits and
discarded; the other half form each agent's code-bit string v.  The leader
broadcasts c XOR v for a random codeword c, every other agent XORs in its
own copy and decodes, and the shared key is the codeword's index.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .bits import BitString
from .channel_sim import Transcript, broadcast, simulate_pairwise_kd
from .config_io import ConfigError
from .graph_core import SecurityGraph, SpanningTree, mst_kruskal, validate_graph
from .linear_code import LinearCode, decode_to_codeword, index_of, random_codeword
from .rng import SeededRng
from .subroutine import block_announcers, reconstruct_assignment
from .subroutine import subroutine_round, terminal_edge_key
from .transcript_io import format_payload


class InvalidGraphError(ConfigError):
    """The protocol refuses to run on an invalid security graph; one error
    per violated invariant."""


class ProtocolConfig:
    def __init__(
        self,
        graph: SecurityGraph,
        leader: int,
        code: LinearCode,
        blocks: int,
        delta: float,
        seed: int,
    ):
        if not (0.0 < delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        # An agentless graph is left to the graph check in tree.
        if graph.n and not (0 <= leader < graph.n):
            raise ValueError("leader out of range")
        if blocks < 1:
            raise ValueError("blocks must be >= 1")
        self.graph = graph
        self.leader = leader
        self.code = code
        self.blocks = blocks
        self.delta = delta
        self.seed = seed

    @cached_property
    def tree(self) -> SpanningTree:
        """The validated graph's minimum spanning tree, built on first use.

        The one place a run's graph is checked: InvalidGraphError lists every
        violation, and mst_kruskal raises DisconnectedGraphError.
        """
        violations = validate_graph(self.graph)
        if violations:
            raise InvalidGraphError(violations)
        return mst_kruskal(self.graph)


class KeyResult(NamedTuple):
    status: str  # "completed" | "aborted"
    key_indices: Optional[Dict[int, int]]
    mismatch: Mapping[int, Fraction]
    transcript: Transcript


def code_efficiency(n: int, k: int, m: int) -> Fraction:
    """Key yield of the full protocol: kn/(2m(n-1)), limit (1/2)k/m.

    As in the paper's formula, only the m code-bit rounds that become key
    material count; the m check rounds are consumed but excluded.
    """
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
) -> Tuple[bool, Dict[int, Fraction]]:
    """(abort, mismatch): abort iff any agent's mismatch fraction vs the
    leader strictly exceeds delta, read as the decimal it prints as (the
    float 0.3 is below 3/10); exactly delta proceeds."""
    limit = Fraction(str(delta))
    reference = check_values[leader]
    m = len(reference)
    mismatch: Dict[int, Fraction] = {}
    for agent, bits in check_values.items():
        if agent == leader:
            continue
        mismatch[agent] = Fraction(reference.hamming(bits), m)
    return any(frac > limit for frac in mismatch.values()), mismatch


def reconcile(
    codebits: Mapping[int, BitString],
    code: LinearCode,
    rng: SeededRng,
    transcript: Transcript,
    leader: int,
) -> Dict[int, int]:
    """Code-based reconciliation: broadcast c XOR v, decode, output index."""
    index, codeword = random_codeword(code, rng)
    masked = codeword ^ codebits[leader]
    text = format_payload("code_broadcast", masked)
    broadcast(transcript, leader, "code_broadcast", text)
    indices: Dict[int, int] = {leader: index}
    for agent, bits in codebits.items():
        if agent == leader:
            continue
        received = masked ^ bits  # = codeword XOR error vector
        decoded, _ = decode_to_codeword(code, received)
        indices[agent] = index_of(code, decoded)
    return indices


def run_rounds(
    config: ProtocolConfig, block_index: int, positions: int
) -> Tuple[Dict[int, BitString], Transcript]:
    """Steps 1-3: pairwise KD on the tree and `positions` subroutine rounds.

    Returns each agent's secret string (length `positions`) and the rounds'
    transcript.  Edge copies and each announcer's masks are int words,
    position 0 in the most significant bit.  The leader reconstructs once,
    from its own words and the masked words; its bit r is bit r of round
    r's chosen terminal edge.  Agent j's string is the leader's XOR
    P[leader] XOR P[j], where P[v] is the XOR of the disagreement words
    A ^ B on the tree path from agent 0 to v.
    """
    tree, leader = config.tree, config.leader
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
    announcing = block_announcers(tree, words)
    rounds = [
        subroutine_round(
            tree, announcing, rng.substream("round", r), transcript, leader,
            positions - 1 - r,
        )
        for r in range(positions)
    ]
    masked = {}
    for i, (agent, _, record) in enumerate(announcing):
        mask = sum(masks[i] << positions - 1 - r for r, (_, masks) in enumerate(rounds))
        masked[agent] = {key: word ^ mask for key, word in record.items()}
    own = {e.key: words[e.key][int(leader == e.b)] for e in tree.incident_edges(leader)}
    assignment = reconstruct_assignment(leader, own, masked, tree)
    base = parity[leader] ^ sum(
        assignment[terminal_edge_key(tree, chosen)] & (1 << positions - 1 - r)
        for r, (chosen, _) in enumerate(rounds)
    )
    strings = {
        agent: BitString(base ^ parity[agent], positions) for agent in range(tree.n)
    }
    return strings, transcript


def run_block(config: ProtocolConfig, block_index: int = 0) -> KeyResult:
    """One full block: rounds, check phase, abort decision, reconciliation.

    A completed block's key is the codeword index each agent decoded; for
    these systematic codes the key bits are the index's k bits.
    """
    m, leader = config.code.m, config.leader
    strings, transcript = run_rounds(config, block_index, 2 * m)
    rng = SeededRng(config.seed).substream("block", block_index)

    check_positions = select_check_positions(rng.substream("check"), 2 * m)
    text = format_payload("check_positions", check_positions)
    broadcast(transcript, leader, "check_positions", text)
    check_values = {agent: bits.take(check_positions) for agent, bits in strings.items()}
    for agent, bits in check_values.items():
        broadcast(transcript, agent, "check_values", format_payload("check_values", bits))
    abort, mismatch = decide_abort(check_values, leader, config.delta)
    if abort:
        broadcast(transcript, leader, "abort", format_payload("abort", mismatch))
        return KeyResult("aborted", None, mismatch, transcript)

    code_positions = sorted(set(range(2 * m)).difference(check_positions))
    codebits = {agent: bits.take(code_positions) for agent, bits in strings.items()}
    indices = reconcile(codebits, config.code, rng.substream("code"), transcript, leader)
    return KeyResult("completed", indices, mismatch, transcript)


def run_blocks(config: ProtocolConfig) -> List[KeyResult]:
    return [run_block(config, i) for i in range(config.blocks)]


def summarize(results: Sequence[KeyResult]) -> Tuple[int, int, Tuple[Fraction, ...]]:
    """(completed, agreed, mismatches) over a run's blocks.

    agreed counts the completed blocks whose agents all hold the same key;
    the mismatches come in block, then agent, order.
    """
    completed = [r for r in results if r.status == "completed"]
    return (
        len(completed),
        sum(1 for r in completed if len(set(r.key_indices.values())) == 1),
        tuple(frac for r in results for frac in r.mismatch.values()),
    )
