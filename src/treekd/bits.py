"""Fixed-length bit strings over {0,1} with XOR algebra."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class BitString:
    """An immutable sequence of bits, index 0 first, held as one int.

    ``value`` is big-endian: bit i of the string is bit ``len - 1 - i`` of
    the int, so the int's binary digits read as the string and comparing
    two equal-length values compares the strings lexicographically.
    """

    __slots__ = ("value", "_length")

    def __init__(self, value: int, length: int):
        if length < 0 or value < 0 or value >> length:
            raise ValueError(f"value {value} does not fit in {length} bits")
        self.value = value
        self._length = length

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitString":
        value = length = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError("bits must be 0 or 1")
            value = value << 1 | int(b)
            length += 1
        return cls(value, length)

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        if text.strip("01"):
            raise ValueError("bits must be 0 or 1")
        return cls(int(text, 2) if text else 0, len(text))

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i: int) -> int:
        n = self._length
        if not -n <= i < n:
            raise IndexError("BitString index out of range")
        return self.value >> (n - 1 - i % n) & 1

    def __iter__(self) -> Iterator[int]:
        value = self.value
        return (value >> shift & 1 for shift in range(self._length - 1, -1, -1))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitString)
            and self.value == other.value
            and self._length == other._length
        )

    def __hash__(self) -> int:
        return hash((self.value, self._length))

    def __xor__(self, other: "BitString") -> "BitString":
        if self._length != other._length:
            raise ValueError("length mismatch in XOR")
        return BitString(self.value ^ other.value, self._length)

    def hamming(self, other: "BitString") -> int:
        if self._length != other._length:
            raise ValueError("length mismatch in Hamming distance")
        return (self.value ^ other.value).bit_count()

    def weight(self) -> int:
        return self.value.bit_count()

    def take(self, positions: Sequence[int]) -> "BitString":
        """The sub-string at the given positions, in the given order."""
        text = str(self)
        return BitString.from_text("".join([text[i] for i in positions]))

    def __str__(self) -> str:
        return format(self.value, f"0{self._length}b") if self._length else ""

    def __repr__(self) -> str:
        return f"BitString({self})"
