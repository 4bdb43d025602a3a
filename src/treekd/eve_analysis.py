"""Certification of what the public transcript reveals.

The analyzer sees exactly what an eavesdropper sees: the masked
announcements and the terminal choice, never any ground-truth edge bit.
It counts the edge-bit assignments consistent with a round's
announcements and measures the entropy of the secret bit over that set.
Honest rounds must always leave exactly two complementary candidates.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from .graph_core import EdgeKey, SpanningTree
from .subroutine import terminal_edge_key
from .transcript_io import ParsedTranscript


def consistent_configurations(
    announcements: Mapping[int, Mapping[EdgeKey, int]],
    tree: SpanningTree,
) -> int:
    """Count the edge assignments an eavesdropper cannot rule out.

    An assignment is consistent when every announcement can be explained
    by a single mask bit: all its masked bits differ from the assignment's
    bits by the same constant.  A record over d edges therefore fixes the
    XOR of each pair of them, d - 1 independent constraints, and records
    of different agents stay independent because a tree has no cycle: the
    n - 1 edge bits keep n - 1 - sum(d - 1) free bits.

    A structurally invalid announcement (sender is a terminal, or the
    record's edge set is not exactly the sender's incident tree edges)
    is explainable by nothing, so the count is 0.  Note that a flipped
    announcement *value* is not structural: any per-agent record over the
    right edges still leaves exactly two complementary candidates, which
    is precisely the masking guarantee.
    """
    for agent, masked in announcements.items():
        incident = {e.key for e in tree.incident_edges(agent)}
        if len(incident) <= 1 or set(masked) != incident:
            return 0
    fixed = sum(len(masked) - 1 for masked in announcements.values())
    return 2 ** (tree.n - 1 - fixed)


def secret_entropy(count: int, chosen: int, tree: SpanningTree) -> float:
    """Shannon entropy (bits) of the secret bit over the consistent set.

    count is the set's size from consistent_configurations.  Complementing
    every edge maps the set onto itself: a full bit unless empty.
    """
    terminal_edge_key(tree, chosen)
    return 1.0 if count else 0.0


def rounds_from_transcript(transcript: ParsedTranscript) -> List[Tuple[dict, int]]:
    """Split a block transcript into (announcements, chosen terminal) rounds.

    A round is the run of announcements up to and including one
    terminal_choice, as visible on the wire; check/code/abort messages after
    the rounds are not part of the eavesdropper's round analysis.
    """
    rounds: List[Tuple[dict, int]] = []
    pending: Dict[int, Mapping[EdgeKey, int]] = {}
    for msg in transcript.messages:
        if msg.kind == "announcement":
            pending[msg.sender] = msg.payload
        elif msg.kind == "terminal_choice":
            rounds.append((pending, msg.payload))
            pending = {}
    return rounds
