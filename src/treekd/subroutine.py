"""The classical round that turns n-1 pairwise bits into one n-party bit.

Each non-terminal agent broadcasts its incident edge bits XORed with one
fresh private mask bit (the uniformly randomized record).  Every agent can
reconstruct the full edge assignment from its own copies plus the masked
records, and the round's secret bit is the edge bit at a randomly chosen
terminal agent.

The masks cancel along tree paths, so two agents' reconstructions of any
edge differ exactly by the XOR of the pairwise disagreements (a-side copy
XOR b-side copy) on the tree path between them.  The simulator therefore
runs the reconstruction once, for the leader, and derives every other
agent's bit from the leader's by that path parity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Set, Tuple

from collections import deque

from .channel_sim import BroadcastMessage, Transcript, broadcast
from .graph_core import EdgeKey, SpanningTree, terminal_agents
from .rng import SeededRng


class MissingAnnouncementError(Exception):
    """A non-terminal agent's announcement is absent from the round."""


class NonTerminalChoiceError(Exception):
    """The secret-bit holder must be a terminal agent."""


@dataclass(frozen=True)
class AgentView:
    """One agent's own copies of its incident tree-edge bits for a round."""

    agent: int
    incident_bits: Mapping[EdgeKey, int]


def reconstruct_assignment(
    own: AgentView,
    announcements: Mapping[int, Mapping[EdgeKey, int]],
    tree: SpanningTree,
) -> Dict[EdgeKey, int]:
    """Recover every tree edge's bit from one agent's vantage point.

    Breadth-first from the reconstructing agent, neighbors in ascending id:
    at each announcing neighbor the mask is deduced from the already-known
    bit of the connecting edge and applied to unmask the rest.  The first
    deduction per edge is final; inconsistent (noisy) inputs are never
    revisited.
    """
    terminals = terminal_agents(tree)
    for v in range(tree.n):
        if v not in terminals and v not in announcements:
            raise MissingAnnouncementError(
                f"no announcement from non-terminal agent {v}"
            )

    adj = tree.adjacency()
    assignment: Dict[EdgeKey, int] = dict(own.incident_bits)
    visited = {own.agent}
    queue = deque([own.agent])
    while queue:
        u = queue.popleft()
        for v in sorted(adj[u]):
            if v in visited:
                continue
            visited.add(v)
            connecting: EdgeKey = (min(u, v), max(u, v))
            if v in announcements:
                masked = announcements[v]
                mask = masked[connecting] ^ assignment[connecting]
                for e, mb in masked.items():
                    if e not in assignment:
                        assignment[e] = mb ^ mask
            queue.append(v)
    return assignment


def choose_secret_terminal(terminals: Set[int], rng: SeededRng) -> int:
    if not terminals:
        raise ValueError("terminal set is empty")
    return rng.choice(sorted(terminals))


def terminal_edge_key(tree: SpanningTree, agent: int) -> EdgeKey:
    """The key of a terminal agent's single tree edge, which holds its secret bit."""
    incident = tree.incident_edges(agent)
    if len(incident) != 1:
        raise NonTerminalChoiceError(f"agent {agent} is not terminal")
    return incident[0].key


def subroutine_round(
    tree: SpanningTree,
    position_bits: Mapping[EdgeKey, Tuple[int, int]],
    rng: SeededRng,
    transcript: Transcript,
    leader: int = 0,
) -> Dict[int, int]:
    """One full round: announcements, terminal choice, per-agent secret bits.

    position_bits maps each tree edge to the (a-side, b-side) copies for the
    current position.  Round randomness draws in a fixed order: one fresh
    mask per non-terminal agent in ascending id, then the leader's terminal
    choice.  Returns each agent's secret bit: the leader's from its own
    reconstruction, every other agent's equal to what its own
    reconstruction would give, found by tree-path parity.
    """
    if set(position_bits) != {e.key for e in tree.edges}:
        raise ValueError("position_bits must cover exactly the tree edges")
    terminals = terminal_agents(tree)

    def own_copies(agent: int) -> Dict[EdgeKey, int]:
        return {
            e.key: position_bits[e.key][0 if agent == e.a else 1]
            for e in tree.incident_edges(agent)
        }

    announcements: Dict[int, Dict[EdgeKey, int]] = {}
    for agent in range(tree.n):
        if agent in terminals:
            continue
        mask = rng.bit()
        payload = {key: bit ^ mask for key, bit in sorted(own_copies(agent).items())}
        announcements[agent] = payload
        broadcast(
            transcript,
            BroadcastMessage(transcript.next_seq(), agent, "announcement", payload),
        )

    chosen = choose_secret_terminal(terminals, rng)
    broadcast(
        transcript,
        BroadcastMessage(transcript.next_seq(), leader, "terminal_choice", chosen),
    )

    assignment = reconstruct_assignment(
        AgentView(agent=leader, incident_bits=own_copies(leader)), announcements, tree
    )
    parity = [0] * tree.n  # disagreements on the tree path from agent 0
    for v, parent, key in tree.parent_edges():
        a_copy, b_copy = position_bits[key]
        parity[v] = parity[parent] ^ a_copy ^ b_copy
    base = assignment[terminal_edge_key(tree, chosen)] ^ parity[leader]
    return {agent: base ^ parity[agent] for agent in range(tree.n)}


def random_efficiency(n: int) -> Fraction:
    """Shared-randomness yield of the subroutine: n/(2(n-1)), limit 1/2."""
    if n < 2:
        raise ValueError("need at least two agents")
    return Fraction(n, 2 * (n - 1))
