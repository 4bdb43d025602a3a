"""Certification of what the public transcript reveals.

The analyzer sees exactly what an eavesdropper sees: the masked
announcements and the terminal choice, never any ground-truth edge bit.
It counts the edge-bit assignments consistent with a round's
announcements and measures the entropy of the secret bit over that set.
Honest rounds must always leave exactly two complementary candidates.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from .graph_core import EdgeKey, SpanningTree
from .transcript_io import ParsedTranscript


def consistent_configurations(
    announcements: Mapping[int, Mapping[EdgeKey, int]],
    tree: SpanningTree,
    checked: Optional[Dict[int, int]] = None,
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

    checked maps id(record) to the constraints the record fixes, or -1 for
    an invalid one, so a caller that passes one table over many rounds
    checks each record object once.  It may do so only while it holds
    every record it has passed, each read-only and sent by one agent: the
    parser's shared views are.
    """
    if checked is None:
        checked = {}
    fixed = 0
    for agent, masked in announcements.items():
        constraints = checked.get(id(masked))
        if constraints is None:
            incident = tree.incident_keys(agent)
            valid = len(incident) > 1 and masked.keys() == incident
            constraints = checked[id(masked)] = len(masked) - 1 if valid else -1
        if constraints < 0:
            return 0
        fixed += constraints
    return 2 ** (tree.n - 1 - fixed)


def secret_entropy(count: int) -> float:
    """Shannon entropy (bits) of a terminal's secret bit over the consistent set.

    count is the set's size from consistent_configurations.  Complementing
    every edge maps the set onto itself: a full bit unless empty.
    """
    return 1.0 if count else 0.0


def rounds_from_transcript(transcript: ParsedTranscript) -> List[Tuple[dict, int, int]]:
    """A block's (announcements by sender, chooser, chosen terminal) rounds,
    as parse_transcript grouped them, each announcement a read-only view.
    A round is the run of announcements its terminal_choice closes; the
    check, code and abort messages after the rounds are not part of it."""
    return transcript.rounds
