"""Pairwise key distribution as a noisy shared-randomness source.

The quantum pairwise step is modeled abstractly: each tree edge yields two
endpoint bit strings that agree up to independent symmetric bit flips at
the edge's flip probability, and an eavesdropper learns nothing from this
step.  An anti-correlated link is corrected by its endpoints (one of them
complements its string), so the config parser accepts the ``anti`` flag
and drops it, and the simulator hands out aligned strings.  Everything
broadcast afterwards goes through an append-only public transcript, which
numbers its own messages 0, 1, 2, ... in the order they are broadcast.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Sequence, Tuple

from .bits import BitString
from .graph_core import WeightedEdge
from .rng import SeededRng


class BroadcastMessage(NamedTuple):
    seq: int
    sender: int
    kind: str
    payload: Any


class Transcript:
    """The ordered public record of every authenticated broadcast."""

    def __init__(self):
        self._messages: List[BroadcastMessage] = []

    @property
    def messages(self) -> Tuple[BroadcastMessage, ...]:
        return tuple(self._messages)

    def __len__(self) -> int:
        return len(self._messages)


def broadcast(t: Transcript, sender: int, kind: str, payload: Any) -> None:
    """Append one message, numbered by its position: seq runs 0, 1, 2, ..."""
    t._messages.append(BroadcastMessage(len(t), sender, kind, payload))


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
