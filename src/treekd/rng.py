"""Seeded deterministic randomness with labeled substreams.

The generator is CPython's Mersenne Twister (``random.Random``), which is
stable across platforms and Python versions for the operations used here.
Substreams are derived by hashing the parent seed together with string
labels (SHA-256, first 8 bytes as the child seed), so every component of a
run draws from its own independent, reproducible stream.  A stream seeds
its generator on its first draw, so one that only derives children never
seeds one.  Every draw goes through the generator's own methods, from
``generator()``, which seeds the twister through its C ``seed`` alone: the
state ``Random(seed)`` builds for an int seed, without ``Random.__init__``
and ``Random.seed`` dispatching to it in Python.
"""

from __future__ import annotations

import hashlib
from random import Random
from typing import Optional


class SeededRng:
    """A deterministic random stream identified by a 64-bit seed."""

    def __init__(self, seed: int):
        self.seed = seed
        # None until the first draw.  A plain attribute tested on each call
        # costs less per block than a cached_property, which CPython 3.11
        # reads through a lock and without its fast attribute path.
        self._rng: Optional[Random] = None

    def generator(self) -> Random:
        """The stream's generator, seeded on the first call; every draw
        from the stream advances its one state."""
        if self._rng is None:
            rng = self._rng = Random.__new__(Random)
            super(Random, rng).seed(self.seed)
            rng.gauss_next = None
        return self._rng

    def substream(self, *labels: object) -> "SeededRng":
        """Derive an independent child stream from this seed and labels."""
        material = "/".join(map(str, (self.seed, *labels)))
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        return SeededRng(int.from_bytes(digest[:8], "big"))

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed})"
