"""The classical round that turns n-1 pairwise bits into one n-party bit.

Each non-terminal agent broadcasts its incident edge bits XORed with one
fresh private mask bit (the uniformly randomized record).  Every agent then
reconstructs the full edge assignment from its own copies plus the masked
records, and the round's secret bit is the edge bit at a randomly chosen
terminal agent.
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


@dataclass(frozen=True)
class AnnouncementRecord:
    """A masked incident-bit record; only masked_bits is ever broadcast."""

    agent: int
    masked_bits: Mapping[EdgeKey, int]
    mask: int  # private, never serialized

    def broadcast_payload(self) -> Dict[EdgeKey, int]:
        return dict(sorted(self.masked_bits.items()))


def make_announcement(view: AgentView, mask: int) -> AnnouncementRecord:
    if mask not in (0, 1):
        raise ValueError("mask must be a bit")
    masked = {e: bit ^ mask for e, bit in view.incident_bits.items()}
    return AnnouncementRecord(agent=view.agent, masked_bits=masked, mask=mask)


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


def secret_bit(
    assignment: Mapping[EdgeKey, int], chosen: int, tree: SpanningTree
) -> int:
    return assignment[terminal_edge_key(tree, chosen)]


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
    choice.  Returns each agent's secret bit as computed from its own
    reconstruction.
    """
    if set(position_bits) != {e.key for e in tree.edges}:
        raise ValueError("position_bits must cover exactly the tree edges")
    terminals = terminal_agents(tree)

    def view_of(agent: int) -> AgentView:
        bits = {}
        for e in tree.incident_edges(agent):
            a_copy, b_copy = position_bits[e.key]
            bits[e.key] = a_copy if agent == e.a else b_copy
        return AgentView(agent=agent, incident_bits=bits)

    views = {agent: view_of(agent) for agent in range(tree.n)}

    announcements: Dict[int, Dict[EdgeKey, int]] = {}
    for agent in range(tree.n):
        if agent in terminals:
            continue
        record = make_announcement(views[agent], rng.bit())
        payload = record.broadcast_payload()
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

    secrets: Dict[int, int] = {}
    for agent in range(tree.n):
        assignment = reconstruct_assignment(views[agent], announcements, tree)
        secrets[agent] = secret_bit(assignment, chosen, tree)
    return secrets


def random_efficiency(n: int) -> Fraction:
    """Shared-randomness yield of the subroutine: n/(2(n-1)), limit 1/2."""
    if n < 2:
        raise ValueError("need at least two agents")
    return Fraction(n, 2 * (n - 1))
