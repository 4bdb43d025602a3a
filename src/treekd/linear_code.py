"""Binary [m,k] block codes with nearest-codeword decoding.

Generator convention: systematic, G = [I_k | A], rows over GF(2); a code
is held as its codeword table, built once from A.  Words and codewords are
m-bit ints, position 0 in the most significant bit.  A codeword's index is
the integer whose k-bit big-endian representation is the message, i.e. the
first k codeword bits.  The named codes have at most 16 codewords, so
decoding compares the word with every one of them and keeps the nearest:
exact within the guaranteed radius t and a defined miscorrection beyond it.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Tuple

from .rng import SeededRng


LinearCode = namedtuple("LinearCode", "m k t codewords")
LinearCode.__doc__ = """A t-error-correcting [m,k] code over GF(2), held as its codeword
table: m, k and t (int), and codewords (Tuple[int, ...]), all 2^k
codewords in index order, each an m-bit int."""


def _systematic_code(m: int, k: int, t: int, rows: Tuple[int, ...]) -> LinearCode:
    """The code G = [I_k | A] from A's k rows, each an (m-k)-bit int, tabulated once."""
    table = []
    for index in range(1 << k):
        parity = 0
        for i, row in enumerate(rows):
            if index >> (k - 1 - i) & 1:
                parity ^= row
        table.append(index << (m - k) | parity)
    return LinearCode(m=m, k=k, t=t, codewords=tuple(table))


def hamming_7_4() -> LinearCode:
    """The [7,4] Hamming code, t = 1, systematic convention."""
    return _systematic_code(7, 4, 1, (0b110, 0b101, 0b011, 0b111))


def repetition_code(m: int) -> LinearCode:
    """The [m,1] repetition code, t = (m-1)/2; m must be odd."""
    if m < 1 or m % 2 == 0:
        raise ValueError("repetition length must be odd and positive")
    return _systematic_code(m, 1, (m - 1) // 2, ((1 << (m - 1)) - 1,))


def decode_to_codeword(code: LinearCode, word: int) -> Tuple[int, int]:
    """Return (nearest codeword, estimated error), error = word XOR codeword,
    for an m-bit word.

    The error has minimum weight; among equal weights it is the one whose
    set positions come first, i.e. the largest as a big-endian integer.
    """
    if word < 0 or word >> code.m:
        raise ValueError(f"word {word} does not fit in m={code.m} bits")
    error = max((word ^ c for c in code.codewords), key=lambda e: (-e.bit_count(), e))
    return word ^ error, error


def index_of(code: LinearCode, codeword: int) -> int:
    """The unique index i with code.codewords[i] == codeword: its first k bits."""
    index = codeword >> (code.m - code.k)
    if 0 <= index < len(code.codewords) and code.codewords[index] == codeword:
        return index
    raise ValueError(f"{codeword} is not a codeword")


def random_codeword(code: LinearCode, rng: SeededRng) -> Tuple[int, int]:
    """A uniformly random (index, codeword) pair."""
    index = rng.generator().randrange(1 << code.k)
    return index, code.codewords[index]


def code_by_name(name: str) -> LinearCode:
    """Resolve a config code name: ``hamming7_4`` or ``repetition<m>``."""
    if name == "hamming7_4":
        return hamming_7_4()
    if name.startswith("repetition"):
        digits = name[len("repetition"):]
        try:
            # Only as str(m) writes m: int() alone also reads '+3', '03',
            # '0_3' and '\u0663'.
            if not (digits.isascii() and digits.isdigit() and str(int(digits)) == digits):
                raise ValueError(f"length {digits!r} is not a canonical ASCII number")
            return repetition_code(int(digits))
        except ValueError as exc:
            raise ValueError(f"bad repetition code name {name!r}: {exc}") from exc
    raise ValueError(f"unknown code name {name!r}")
