"""Fixed-length bit strings over {0,1} with XOR algebra."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .rng import SeededRng


class BitString:
    """An immutable sequence of bits, index 0 first."""

    __slots__ = ("_bits",)

    def __init__(self, bits: Iterable[int]):
        data = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in data):
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "_bits", data)

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        return cls(int(ch) for ch in text)

    @classmethod
    def random(cls, length: int, rng: SeededRng) -> "BitString":
        return cls(rng.bit() for _ in range(length))

    @classmethod
    def bernoulli(cls, length: int, p: float, rng: SeededRng) -> "BitString":
        """Independent bits, each 1 with probability p."""
        return cls(1 if rng.random() < p else 0 for _ in range(length))

    def __len__(self) -> int:
        return len(self._bits)

    def __getitem__(self, i: int) -> int:
        return self._bits[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self._bits)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BitString) and self._bits == other._bits

    def __hash__(self) -> int:
        return hash(self._bits)

    def __xor__(self, other: "BitString") -> "BitString":
        if len(self) != len(other):
            raise ValueError("length mismatch in XOR")
        return BitString(a ^ b for a, b in zip(self._bits, other._bits))

    def hamming(self, other: "BitString") -> int:
        if len(self) != len(other):
            raise ValueError("length mismatch in Hamming distance")
        return sum(a != b for a, b in zip(self._bits, other._bits))

    def weight(self) -> int:
        return sum(self._bits)

    def take(self, positions: Sequence[int]) -> "BitString":
        """The sub-string at the given positions, in the given order."""
        return BitString(self._bits[i] for i in positions)

    def __str__(self) -> str:
        return "".join(str(b) for b in self._bits)

    def __repr__(self) -> str:
        return f"BitString({self})"
