"""The classical round that turns n-1 pairwise bits into one n-party bit.

Each non-terminal agent broadcasts its incident edge bits XORed with one
fresh private mask bit (the uniformly randomized record).  Every agent can
reconstruct the full edge assignment from its own copies plus the masked
records, and the round's secret bit is the edge bit at a randomly chosen
terminal agent.

The masks cancel along tree paths, so two agents' reconstructions of any
edge differ exactly by the XOR of the pairwise disagreements (a-side copy
XOR b-side copy) on the tree path between them.  The simulator therefore
runs the reconstruction once per round, for the leader, and
protocol.run_rounds derives every other agent's bits from the leader's by
that path parity, for a whole block at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Set, Tuple

from collections import deque

from .channel_sim import Transcript, broadcast
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
        for v in adj[u]:
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
    edge_words: Mapping[EdgeKey, Tuple[int, int]],
    rng: SeededRng,
    transcript: Transcript,
    leader: int = 0,
    bit: int = 0,
) -> int:
    """One full round: announcements, terminal choice, the leader's secret bit.

    edge_words maps each tree edge to its (a-side, b-side) copies as int
    words; the round reads bit `bit` of each (0 = least significant), so a
    mapping to single 0/1 copies is the bit = 0 case.  Round randomness
    draws in a fixed order: one fresh mask per non-terminal agent in
    ascending id, then the leader's terminal choice.  Returns the leader's
    bit from its own reconstruction; every other agent's bit differs from
    it by the tree-path parity of the pairwise disagreements.
    """
    if set(edge_words) != {e.key for e in tree.edges}:
        raise ValueError("edge_words must cover exactly the tree edges")

    announcements: Dict[int, Dict[EdgeKey, int]] = {}
    for agent, sides in tree.announcers():
        mask = rng.bit()
        payload = {
            key: (edge_words[key][side] >> bit & 1) ^ mask for key, side in sides
        }
        announcements[agent] = payload
        broadcast(transcript, agent, "announcement", payload)

    chosen = choose_secret_terminal(terminal_agents(tree), rng)
    broadcast(transcript, leader, "terminal_choice", chosen)

    own = {
        e.key: edge_words[e.key][int(leader == e.b)] >> bit & 1
        for e in tree.incident_edges(leader)
    }
    assignment = reconstruct_assignment(AgentView(leader, own), announcements, tree)
    return assignment[terminal_edge_key(tree, chosen)]


def random_efficiency(n: int) -> Fraction:
    """Shared-randomness yield of the subroutine: n/(2(n-1)), limit 1/2."""
    if n < 2:
        raise ValueError("need at least two agents")
    return Fraction(n, 2 * (n - 1))
