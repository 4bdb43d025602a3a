"""Binary [m,k] block codes with nearest-codeword decoding.

Generator convention: systematic, G = [I_k | A], rows over GF(2); a code
is held as its codeword table, built once from A.  A codeword's index is
the integer whose k-bit big-endian representation is the message, i.e. the
first k codeword bits.  The named codes have at most 16 codewords, so
decoding compares the word with every one of them and keeps the nearest:
exact within the guaranteed radius t and a defined miscorrection beyond it.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Tuple

from .bits import BitString
from .rng import SeededRng


class NotACodewordError(Exception):
    """index_of was handed a word outside the code."""


LinearCode = namedtuple("LinearCode", "m k t codewords")
LinearCode.__doc__ = """A t-error-correcting [m,k] code over GF(2), held as its codeword
table: m, k and t (int), and codewords (Tuple[BitString, ...]), all 2^k
codewords in index order."""


def _systematic_code(m: int, k: int, t: int, a_rows) -> LinearCode:
    """The code G = [I_k | A] from the k x (m-k) block A, tabulated once."""
    rows = [BitString.from_bits(row).value for row in a_rows]
    table = []
    for index in range(1 << k):
        parity = 0
        for i, row in enumerate(rows):
            if index >> (k - 1 - i) & 1:
                parity ^= row
        table.append(BitString(index << (m - k) | parity, m))
    return LinearCode(m=m, k=k, t=t, codewords=tuple(table))


def hamming_7_4() -> LinearCode:
    """The [7,4] Hamming code, t = 1, systematic convention."""
    a = ((1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1))
    return _systematic_code(7, 4, 1, a)


def repetition_code(m: int) -> LinearCode:
    """The [m,1] repetition code, t = (m-1)/2; m must be odd."""
    if m < 1 or m % 2 == 0:
        raise ValueError("repetition length must be odd and positive")
    return _systematic_code(m, 1, (m - 1) // 2, ((1,) * (m - 1),))


def decode_to_codeword(
    code: LinearCode, word: BitString
) -> Tuple[BitString, BitString]:
    """Return (nearest codeword, estimated error), error = word XOR codeword.

    The error has minimum weight; among equal weights it is the one whose
    set positions come first, i.e. the largest as a big-endian integer.
    """
    if len(word) != code.m:
        raise ValueError(f"word length {len(word)} != m={code.m}")
    value = word.value
    nearest = code.codewords[value >> (code.m - code.k)]
    if nearest.value == value:  # error 0 is the unique minimum
        return nearest, BitString(0, code.m)
    error = max(
        (value ^ c.value for c in code.codewords), key=lambda e: (-e.bit_count(), e)
    )
    return BitString(value ^ error, code.m), BitString(error, code.m)


def index_of(code: LinearCode, codeword: BitString) -> int:
    """The unique index i with code.codewords[i] == codeword: its first k bits."""
    if len(codeword) == code.m:
        index = codeword.value >> (code.m - code.k)
        if code.codewords[index] == codeword:
            return index
    raise NotACodewordError(f"{codeword} is not a codeword")


def random_codeword(code: LinearCode, rng: SeededRng) -> Tuple[int, BitString]:
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
