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

A block draws its rounds first and renders them after.  subroutine_round
draws one round's randomness from the round's stream and renders nothing;
announcement_layout holds what depends on the tree alone (each announcer's
template and the edge sides it reads) and runs once per config; and
render_rounds writes every round of a block at once, each announcer's
lines in one pass over its masked words.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import chain
from typing import Dict, List, Mapping, Sequence, Tuple

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


def subroutine_round(tree: SpanningTree, rng: SeededRng) -> Tuple[int, List[int]]:
    """One round's randomness, drawn in a fixed order through the stream's
    own generator: one fresh mask bit per non-terminal agent in ascending
    id, then the leader's terminal choice, from the tree's terminals in
    ascending id.  Returns the choice and the masks; render_rounds writes
    the round's lines."""
    generator = rng.generator()
    draw = generator.getrandbits
    masks = [draw(1) for _ in range(tree.n - len(tree.terminals))]
    return generator.choice(tree.terminals), masks


def render_rounds(
    layout: Sequence[Tuple[int, str, Sequence[Tuple[EdgeKey, int]]]],
    masked: Mapping[int, Mapping[EdgeKey, int]],
    chosen: Sequence[int],
    leader: int = 0,
) -> List[str]:
    """The transcript lines of a block's rounds, one round per chosen
    terminal, numbered from 0.

    masked maps each announcer to its masked words, in the order of its
    layout edges, position 0 in the most significant bit.  Round r is each
    announcer's record at position r, in layout order, then the leader's
    terminal choice: of A announcers, announcer i's line of round r is
    line i + r(A + 1) and the choice is line A + r(A + 1).  Each
    announcer's lines come from one line template and its words written
    at len(chosen) digits: one % per line and no per-bit work.
    """
    positions, stride = len(chosen), len(layout) + 1
    end, digits = positions * stride, f"0{positions}b"
    rendered = []
    for i, (agent, template, _) in enumerate(layout):
        line = f"%d {agent} announcement " + template
        columns = [format(w, digits) for w in masked[agent].values()]
        rendered.append([line % bits for bits in zip(range(i, end, stride), *columns)])
    choice = f"%d {leader} terminal_choice %d"
    seqs = range(stride - 1, end, stride)
    rendered.append([choice % pair for pair in zip(seqs, chosen)])
    return list(chain.from_iterable(zip(*rendered)))


def random_efficiency(n: int) -> Fraction:
    """Shared-randomness yield of the subroutine: n/(2(n-1)), limit 1/2."""
    if n < 2:
        raise ValueError("need at least two agents")
    return Fraction(n, 2 * (n - 1))
