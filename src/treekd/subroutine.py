"""The classical round that turns n-1 pairwise bits into one n-party bit.

Each non-terminal agent broadcasts its incident edge bits XORed with one
fresh private mask bit (the uniformly randomized record).  Every agent can
reconstruct the full edge assignment from its own copies plus the masked
records, and the round's secret bit is the edge bit at a randomly chosen
terminal agent.

The reconstruction only XORs and never branches on a bit, so on int words
it does every round at once: protocol.run_rounds reconstructs once per
block, for the leader.  The masks cancel along tree paths, so two agents'
reconstructions of an edge differ exactly by the XOR of the pairwise
disagreements (a-side XOR b-side copy) on the tree path between them, and
run_rounds derives every other agent's bits from the leader's that way.

Rendering is split by how often its inputs change.  announcement_layout
holds what depends on the tree alone (each announcer's template and the
edge sides it reads) and runs once per config; block_announcers turns a
block's edge words into per-position bit columns; subroutine_round draws
a round's masks through the stream's generator and fills each template
from the column its mask picks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

from collections import deque

from .channel_sim import Transcript, broadcast
from .graph_core import EdgeKey, SpanningTree, terminal_agents
from .rng import SeededRng
from .transcript_io import format_payload


class MissingAnnouncementError(Exception):
    """A non-terminal agent's announcement is absent from the round."""


class NonTerminalChoiceError(Exception):
    """The secret-bit holder must be a terminal agent."""


def reconstruct_assignment(
    agent: int,
    own_bits: Mapping[EdgeKey, int],
    announcements: Mapping[int, Mapping[EdgeKey, int]],
    tree: SpanningTree,
) -> Dict[EdgeKey, int]:
    """Recover every tree edge's bit from one agent's vantage point.

    own_bits holds the agent's own copies of its incident tree-edge bits.
    Breadth-first from the agent, neighbors in ascending id:
    at each announcing neighbor the mask is deduced from the already-known
    bit of the connecting edge and applied to unmask the rest.  The first
    deduction per edge is final; inconsistent (noisy) inputs are never
    revisited.  Int words work too: each bit position reconstructs alone.
    """
    terminals = terminal_agents(tree)
    for v in range(tree.n):
        if v not in terminals and v not in announcements:
            raise MissingAnnouncementError(
                f"no announcement from non-terminal agent {v}"
            )

    adj = tree.adjacency()
    assignment: Dict[EdgeKey, int] = dict(own_bits)
    visited = {agent}
    queue = deque([agent])
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


def terminal_edge_key(tree: SpanningTree, agent: int) -> EdgeKey:
    """The key of a terminal agent's single tree edge, which holds its secret bit."""
    incident = tree.incident_edges(agent)
    if len(incident) != 1:
        raise NonTerminalChoiceError(f"agent {agent} is not terminal")
    return incident[0].key


def announcement_layout(
    tree: SpanningTree,
) -> Tuple[Tuple[int, str, Tuple[Tuple[EdgeKey, int], ...]], ...]:
    """Each non-terminal agent in ascending id, with its announcement as
    format_payload renders it, a %s in place of each bit, and the (edge key,
    side) of each of its edges, side 1 where it is the edge's b end: the
    part of a round that depends on the tree alone, built once per config."""
    layout = []
    for agent in range(tree.n):
        edges = tree.incident_edges(agent)
        if len(edges) > 1:
            keys = [e.key for e in edges]
            template = format_payload("announcement", dict.fromkeys(keys, "%s"))
            sides = tuple((e.key, int(agent == e.b)) for e in edges)
            layout.append((agent, template, sides))
    return tuple(layout)


def block_announcers(
    layout: Sequence[Tuple[int, str, Sequence[Tuple[EdgeKey, int]]]],
    edge_words: Mapping[EdgeKey, Tuple[int, int]],
    positions: int,
) -> List[Tuple[int, str, Tuple[List[Tuple[str, ...]], List[Tuple[str, ...]]]]]:
    """Each announcer of the layout with its template and its bit columns
    for one block of `positions`-bit (a-side, b-side) edge words.

    Column r holds the announcer's own bits at position r (the word's most
    significant bit is position 0) as '0'/'1' characters in template order:
    columns[0] plain, columns[1] complemented, so a round renders each
    announcement with one % and no per-bit work.  Every word is written at
    `positions` digits, so a position whose bits are all 0 keeps its column.
    """
    digits = f"0{positions}b"
    ones = (1 << positions) - 1
    announcing = []
    for agent, template, sides in layout:
        words = [edge_words[key][side] for key, side in sides]
        plain = list(zip(*[format(w, digits) for w in words]))
        complemented = list(zip(*[format(w ^ ones, digits) for w in words]))
        announcing.append((agent, template, (plain, complemented)))
    return announcing


def subroutine_round(
    tree: SpanningTree,
    announcing: Sequence[Tuple[int, str, Tuple[Sequence[Tuple[str, ...]], ...]]],
    rng: SeededRng,
    transcript: Transcript,
    leader: int = 0,
    bit: int = 0,
) -> Tuple[int, List[int]]:
    """One round's broadcasts on bit `bit` (0 = least significant) of each
    announced word, from block_announcers' columns.  Round randomness draws
    in a fixed order, through the stream's own generator: one fresh mask per
    announcer in ascending id, then the leader's terminal choice, from the
    tree's terminals in ascending id.  Returns the choice and the masks."""
    generator = rng.generator()
    draw = generator.getrandbits
    masks = [draw(1) for _ in announcing]
    for (agent, template, columns), mask in zip(announcing, masks):
        broadcast(transcript, agent, "announcement", template % columns[mask][~bit])
    chosen = generator.choice(tree.terminals)
    text = format_payload("terminal_choice", chosen)
    broadcast(transcript, leader, "terminal_choice", text)
    return chosen, masks


def random_efficiency(n: int) -> Fraction:
    """Shared-randomness yield of the subroutine: n/(2(n-1)), limit 1/2."""
    if n < 2:
        raise ValueError("need at least two agents")
    return Fraction(n, 2 * (n - 1))
