"""Binary [m,k] block codes with syndrome-table decoding.

Generator convention: systematic, G = [I_k | A], H = [A^T | I_{m-k}], rows
and columns over GF(2).  A codeword's index is the integer whose k-bit
big-endian representation is the message, i.e. the first k codeword bits.
The syndrome table maps every syndrome to its minimum-weight coset leader
(ties broken by smallest error pattern read as a big-endian integer), so
decoding is exact within the guaranteed radius t and a defined miscorrection
beyond it.  Block lengths are capped at 15: the table is built on first decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Dict, Tuple

from .bits import BitString
from .rng import SeededRng

MAX_BLOCK_LENGTH = 15


class NotACodewordError(Exception):
    """index_of was handed a word outside the code."""


def _bits_of_int(value: int, width: int) -> Tuple[int, ...]:
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def _int_of_bits(bits) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | b
    return out


@dataclass(frozen=True)
class LinearCode:
    """A t-error-correcting [m,k] code over GF(2)."""

    m: int
    k: int
    t: int
    generator: Tuple[Tuple[int, ...], ...]  # k rows of length m
    parity_check: Tuple[Tuple[int, ...], ...]  # m-k rows of length m

    def __post_init__(self):
        if self.m > MAX_BLOCK_LENGTH:
            raise ValueError(f"block length {self.m} exceeds {MAX_BLOCK_LENGTH}")

    @cached_property
    def decode_table(self) -> Dict[Tuple[int, ...], Tuple[int, ...]]:
        """Minimum-weight coset leader per syndrome, by increasing weight."""
        table: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        total = 1 << (self.m - self.k)
        for weight in range(self.m + 1):
            for positions in combinations(range(self.m), weight):
                error = [0] * self.m
                for p in positions:
                    error[p] = 1
                syn = self.syndrome(BitString(error))
                if syn not in table:
                    table[syn] = tuple(error)
            if len(table) == total:
                break
        return table

    def syndrome(self, word: BitString) -> Tuple[int, ...]:
        return tuple(
            sum(h * b for h, b in zip(row, word)) % 2 for row in self.parity_check
        )


def _systematic_code(m: int, k: int, t: int, a_rows) -> LinearCode:
    """Build G = [I_k | A] and H = [A^T | I_{m-k}] from the k x (m-k) block A."""
    generator = tuple(
        tuple(1 if j == i else 0 for j in range(k)) + tuple(a_rows[i])
        for i in range(k)
    )
    parity = tuple(
        tuple(a_rows[i][j] for i in range(k))
        + tuple(1 if c == j else 0 for c in range(m - k))
        for j in range(m - k)
    )
    return LinearCode(m=m, k=k, t=t, generator=generator, parity_check=parity)


def hamming_7_4() -> LinearCode:
    """The [7,4] Hamming code, t = 1, systematic convention."""
    a = ((1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1))
    return _systematic_code(7, 4, 1, a)


def repetition_code(m: int) -> LinearCode:
    """The [m,1] repetition code, t = (m-1)/2; m must be odd."""
    if m < 1 or m % 2 == 0:
        raise ValueError("repetition length must be odd and positive")
    if m == 1:
        return LinearCode(m=1, k=1, t=0, generator=((1,),), parity_check=())
    return _systematic_code(m, 1, (m - 1) // 2, ((1,) * (m - 1),))


def encode(code: LinearCode, message: BitString) -> BitString:
    if len(message) != code.k:
        raise ValueError(f"message length {len(message)} != k={code.k}")
    out = [0] * code.m
    for i, bit in enumerate(message):
        if bit:
            for j in range(code.m):
                out[j] ^= code.generator[i][j]
    return BitString(out)


def decode_to_codeword(
    code: LinearCode, word: BitString
) -> Tuple[BitString, BitString]:
    """Return (nearest codeword, estimated error) by syndrome lookup."""
    if len(word) != code.m:
        raise ValueError(f"word length {len(word)} != m={code.m}")
    error = BitString(code.decode_table[code.syndrome(word)])
    return word ^ error, error


def encode_index(code: LinearCode, index: int) -> BitString:
    if not (0 <= index < (1 << code.k)):
        raise ValueError("index out of range")
    return encode(code, BitString(_bits_of_int(index, code.k)))


def index_of(code: LinearCode, codeword: BitString) -> int:
    """The unique index i with encode_index(i) == codeword.

    With the systematic convention the message is the first k bits; the
    remainder is verified so non-codewords are rejected.
    """
    if len(codeword) != code.m:
        raise NotACodewordError(f"word length {len(codeword)} != m={code.m}")
    message = BitString(codeword[i] for i in range(code.k))
    if encode(code, message) != codeword:
        raise NotACodewordError(f"{codeword} is not a codeword")
    return _int_of_bits(message)


def random_codeword(code: LinearCode, rng: SeededRng) -> Tuple[int, BitString]:
    """A uniformly random (index, codeword) pair."""
    index = rng.randrange(1 << code.k)
    return index, encode_index(code, index)


def code_by_name(name: str) -> LinearCode:
    """Resolve a config code name: ``hamming7_4`` or ``repetition<m>``."""
    if name == "hamming7_4":
        return hamming_7_4()
    if name.startswith("repetition"):
        try:
            return repetition_code(int(name[len("repetition"):]))
        except ValueError as exc:
            raise ValueError(f"bad repetition code name {name!r}: {exc}") from exc
    raise ValueError(f"unknown code name {name!r}")
