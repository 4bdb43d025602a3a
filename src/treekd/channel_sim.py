"""Pairwise key distribution as a noisy shared-randomness source.

The quantum pairwise step is modeled abstractly: each tree edge yields two
endpoint bit strings that agree up to independent symmetric bit flips at
the edge's flip probability, and an eavesdropper learns nothing from this
step.  An anti-correlated link is corrected by its endpoints (one of them
complements its string), so the config parser accepts the ``anti`` flag
and drops it, and the simulator hands out aligned strings.  Everything
broadcast afterwards goes through an append-only public transcript: one
text line per message, numbered 0, 1, 2, ... in the order they are
broadcast, exactly as ``treekd run`` writes it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .bits import BitString
from .graph_core import WeightedEdge
from .rng import SeededRng


class Transcript:
    """The ordered public record of every authenticated broadcast, as text."""

    def __init__(self):
        self.lines: List[str] = []


def broadcast(t: Transcript, sender: int, kind: str, text: str) -> None:
    """Append one message line, numbered 0, 1, 2, ... by its position; text
    is the payload as transcript_io.format_payload renders it."""
    t.lines.append(f"{len(t.lines)} {sender} {kind} {text}")


def simulate_pairwise_kd(
    edge: WeightedEdge, length: int, rng: SeededRng
) -> Tuple[BitString, BitString]:
    """One pairwise-KD session of `length` positions on an edge.

    Returns the (a-side, b-side) strings after the endpoints have corrected
    any anti-correlation: the a-side is uniform and the b-side is the a-side
    XOR independent Bernoulli(flip_prob) noise.  Applying noise to one side
    only is equivalent in distribution to symmetric application.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    bits_a = BitString.random(length, rng)
    noise = BitString.bernoulli(length, edge.flip_prob, rng)
    return bits_a, bits_a ^ noise


def combined_flip_probability(ps: Sequence[float]) -> float:
    """Probability of an odd number of independent flips along a path."""
    acc = 0.0
    for p in ps:
        if not (0.0 <= p < 0.5):
            raise ValueError("each flip probability must lie in [0, 0.5)")
        acc = acc + p - 2.0 * acc * p
    return acc
