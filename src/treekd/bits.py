"""Fixed-length bit strings: the bit payloads a transcript carries."""

from __future__ import annotations


class BitString:
    """An immutable bit string, index 0 first, held as one int: a
    check_values or code_broadcast payload as the transcript parser reads
    it.  Only the parser builds one: the engine writes bit text.

    ``value`` is big-endian: bit i of the string is bit ``len - 1 - i`` of
    the int, so the int's binary digits read as the string.
    """

    __slots__ = ("value", "_length")

    def __init__(self, value: int, length: int):
        if length < 0 or value < 0 or value >> length:
            raise ValueError(f"value {value} does not fit in {length} bits")
        self.value = value
        self._length = length

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        if text.strip("01"):
            raise ValueError("bits must be 0 or 1")
        return cls(int(text, 2) if text else 0, len(text))

    def __len__(self) -> int:
        return self._length

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitString)
            and self.value == other.value
            and self._length == other._length
        )

    def __hash__(self) -> int:
        return hash((self.value, self._length))

    def __str__(self) -> str:
        return format(self.value, f"0{self._length}b") if self._length else ""

    def __repr__(self) -> str:
        return f"BitString({self})"
