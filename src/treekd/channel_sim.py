"""Pairwise key distribution as a noisy shared-randomness source.

The quantum pairwise step is modeled abstractly: each tree edge yields two
endpoint bit strings that agree up to independent symmetric bit flips at
the edge's flip probability, and an eavesdropper learns nothing from this
step.  An anti-correlated link is corrected by its endpoints (one of them
complements its string), so the config parser accepts the ``anti`` flag
and drops it, and the simulator hands out aligned strings.  Everything
broadcast afterwards is on a block's public transcript, a list of text
lines, one per message, numbered 0, 1, 2, ... in the order they are
broadcast, exactly as ``treekd run`` writes it.  A block's rounds are not
sent line by line: subroutine.render_rounds writes all their lines at
once, as the transcript's start, and ``broadcast`` appends each later
message.
"""

from __future__ import annotations

from typing import List, Tuple

from .graph_core import WeightedEdge
from .rng import SeededRng


def broadcast(t: List[str], sender: int, kind: str, text: str) -> None:
    """Append one message line to transcript t, numbered 0, 1, 2, ... by its
    position; text is the payload as transcript_io.format_payload renders it."""
    t.append(f"{len(t)} {sender} {kind} {text}")


def simulate_pairwise_kd(
    edge: WeightedEdge, length: int, rng: SeededRng
) -> Tuple[int, int]:
    """One pairwise-KD session of `length` positions on an edge.

    Returns the (a-side, b-side) words, position 0 in the most significant
    bit, after the endpoints have corrected any anti-correlation: the a-side
    is `length` uniform bits and the b-side is the a-side XOR `length`
    independent Bernoulli(flip_prob) draws, drawn in that order from the
    stream's generator: `length` calls of getrandbits(1), then `length` of
    random() < flip.  Applying noise to one side only is equivalent in
    distribution to symmetric application.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    generator, flip = rng.generator(), edge.flip_prob
    draw_bits, draw_unit = generator.getrandbits, generator.random
    a = noise = 0
    for _ in range(length):
        a = a << 1 | draw_bits(1)
    for _ in range(length):
        noise = noise << 1 | (draw_unit() < flip)
    return a, a ^ noise

