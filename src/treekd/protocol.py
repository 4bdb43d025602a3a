"""End-to-end blocks: pairwise KD, rounds, check bits, abort, reconciliation.

A block runs 2m positions along the minimum spanning tree.  Half the
positions (chosen by the leader) are publicly compared as check bits and
discarded; the other half form each agent's code-bit string v.  The leader
broadcasts c XOR v for a random codeword c, every other agent XORs in its
own copy and decodes, and the shared key is the codeword's index.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Mapping, Sequence, Tuple

from .bits import BitString
from .channel_sim import broadcast, simulate_pairwise_kd
from .graph_core import EdgeKey, SpanningTree, mst_kruskal
from .linear_code import LinearCode, decode_to_codeword, index_of, random_codeword
from .rng import SeededRng
from .subroutine import announcement_layout, random_efficiency, reconstruct_assignment
from .subroutine import render_rounds, subroutine_round
from .transcript_io import format_payload


class ProtocolConfig(namedtuple("ProtocolConfig", "graph leader code blocks delta epsilon seed")):
    """A run config as parse_config checked it: graph (SecurityGraph),
    leader (int), code (LinearCode), blocks (int), delta (float),
    epsilon (float) and seed (int); and its tree, built on first use.

    A subclass, since a namedtuple has no instance dict to cache the tree
    in; _replace makes a new config, which builds its own tree.
    """

    @cached_property
    def tree(self) -> SpanningTree:
        """The graph's minimum spanning tree, built on first use.

        parse_config has checked the graph; mst_kruskal raises
        DisconnectedGraphError when no spanning tree exists.
        """
        return mst_kruskal(self.graph)

    @cached_property
    def announcers(self) -> Tuple[Tuple[int, str, Tuple[Tuple[EdgeKey, int], ...]], ...]:
        """The tree's announcement_layout: each announcer, its template and
        its edges' (key, side), built once per config, not once per block."""
        return announcement_layout(self.tree)


KeyResult = namedtuple("KeyResult", "status key_indices mismatch transcript")
KeyResult.__doc__ = """One block's outcome: status (str, "completed" or "aborted"),
key_indices (Optional[Dict[int, int]], each agent's key index; None when
aborted), mismatch (Mapping[int, Fraction], each agent's check mismatch)
and transcript (List[str], its lines)."""


def code_efficiency(n: int, k: int, m: int) -> Fraction:
    """Key yield of the full protocol: kn/(2m(n-1)), limit (1/2)k/m.

    As in the paper's formula, only the m code-bit rounds that become key
    material count; the m check rounds are consumed but excluded.
    """
    return random_efficiency(n) * Fraction(k, m)


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
    return tuple(sorted(rng.generator().sample(range(total), m)))


def decide_abort(
    check_values: Mapping[int, BitString], leader: int, delta: float
) -> Tuple[bool, Dict[int, Fraction]]:
    """(abort, mismatch): each key's mismatch fraction vs the leader, the
    leader's own 0 included; abort iff one strictly exceeds delta, read as
    the decimal it prints as (the float 0.3 is below 3/10); exactly delta
    proceeds.
    """
    limit = Fraction(str(delta))
    reference = check_values[leader]
    m = len(reference)
    mismatch = {
        agent: Fraction(reference.hamming(bits), m) for agent, bits in check_values.items()
    }
    return any(frac > limit for frac in mismatch.values()), mismatch


def reconcile(
    codebits: Mapping[int, BitString],
    code: LinearCode,
    rng: SeededRng,
    transcript: List[str],
    leader: int,
) -> Dict[int, int]:
    """Code-based reconciliation: the leader broadcasts c XOR its code bits
    for a random codeword c, and every key, the leader too, decodes that
    XOR its own bits and outputs the codeword's index; the leader decodes
    c itself, so it gets the index it drew.
    """
    _, codeword = random_codeword(code, rng)
    masked = codeword ^ codebits[leader]
    text = format_payload("code_broadcast", masked)
    broadcast(transcript, leader, "code_broadcast", text)
    return {
        agent: index_of(code, decode_to_codeword(code, masked ^ bits)[0])
        for agent, bits in codebits.items()
    }


def run_rounds(
    config: ProtocolConfig, rng: SeededRng, positions: int
) -> Tuple[List[int], List[str]]:
    """Steps 1-3: pairwise KD on the tree and `positions` subroutine rounds,
    drawn from the block's stream `rng`.

    Returns each agent's secret string as a `positions`-bit int word, in
    agent order, and the rounds' transcript.  These words, the edge copies
    and each announcer's mask word hold position 0 in the most significant
    bit.  Every round draws first, in round order, and each mask word grows
    by a bit as its round returns.  Each announcer's masked words (its own
    words XOR its mask word) then serve twice: render_rounds writes the
    block's round lines from them, and the leader reconstructs from them
    and its own words, once; its bit r is bit r of round r's chosen
    terminal edge.  Agent j's string is the leader's XOR P[leader] XOR P[j], where
    P[v] is the XOR of the disagreement words A ^ B on the tree path from
    agent 0 to v; at low noise most P[j] are 0.
    """
    tree, leader, layout = config.tree, config.leader, config.announcers
    words: Dict[EdgeKey, Tuple[int, int]] = {}
    for edge in tree.edges:
        edge_rng = rng.substream("edge", edge.a, edge.b)
        words[edge.key] = simulate_pairwise_kd(edge, positions, edge_rng)
    parity = [0] * tree.n
    for v, parent, key in tree.parent_edges:
        a, b = words[key]
        parity[v] = parity[parent] ^ a ^ b

    mask_words = [0] * len(layout)
    chosen = []
    for r in range(positions):
        terminal, masks = subroutine_round(tree, rng.substream("round", r))
        mask_words = [w << 1 | m for w, m in zip(mask_words, masks)]
        chosen.append(terminal)
    masked = {
        agent: {key: words[key][side] ^ mask for key, side in sides}
        for (agent, _, sides), mask in zip(layout, mask_words)
    }
    transcript = render_rounds(layout, masked, chosen, leader)
    own = {e.key: words[e.key][int(leader == e.b)] for e in tree.incident_edges(leader)}
    assignment = reconstruct_assignment(leader, own, masked, tree)
    base = parity[leader]
    for r, terminal in enumerate(chosen):
        base ^= assignment[tree.terminal_keys[terminal]] & 1 << positions - 1 - r
    return [base ^ p for p in parity], transcript


def run_block(config: ProtocolConfig, block_index: int = 0) -> KeyResult:
    """One full block: rounds, check phase, abort decision, reconciliation.

    Agents with one word share everything after the rounds, so the block
    splits, checks and decodes one holder per distinct word, the leader for
    its own, and maps the results back to every agent in agent order.

    A completed block's key is the codeword index each agent decoded; for
    these systematic codes the key bits are the index's k bits.
    """
    m, leader = config.code.m, config.leader
    rng = SeededRng(config.seed).substream("block", block_index)
    words, transcript = run_rounds(config, rng, 2 * m)
    holder = {word: agent for agent, word in enumerate(words)}
    holder[words[leader]] = leader
    held = [holder[word] for word in words]
    strings = {agent: BitString(word, 2 * m) for word, agent in holder.items()}

    check_positions = select_check_positions(rng.substream("check"), 2 * m)
    text = format_payload("check_positions", check_positions)
    broadcast(transcript, leader, "check_positions", text)
    checks = {agent: bits.take(check_positions) for agent, bits in strings.items()}
    texts = {agent: format_payload("check_values", bits) for agent, bits in checks.items()}
    for agent, h in enumerate(held):
        broadcast(transcript, agent, "check_values", texts[h])
    abort, fractions = decide_abort(checks, leader, config.delta)
    mismatch = {agent: fractions[h] for agent, h in enumerate(held) if agent != leader}
    if abort:
        broadcast(transcript, leader, "abort", format_payload("abort", mismatch))
        return KeyResult("aborted", None, mismatch, transcript)

    code_positions = sorted(set(range(2 * m)).difference(check_positions))
    codes = {agent: bits.take(code_positions) for agent, bits in strings.items()}
    keys = reconcile(codes, config.code, rng.substream("code"), transcript, leader)
    indices = {agent: keys[h] for agent, h in enumerate(held)}
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
