"""The int-backed BitString, the transcript's bit payload, against its text."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treekd.bits import BitString

bit_lists = st.lists(st.integers(0, 1), max_size=40)


def from_bits(bits):
    text = "".join(map(str, bits))
    return BitString(int(text, 2) if text else 0, len(text))


@given(bit_lists)
def test_text_round_trip(bits):
    text = "".join(map(str, bits))
    s = BitString.from_text(text)
    assert str(s) == text
    assert repr(s) == f"BitString({text})"
    assert len(s) == len(bits)
    assert s == from_bits(bits)
    assert s.value == (int(text, 2) if text else 0)


@given(bit_lists, bit_lists)
def test_equality_and_hash(a, b):
    x, y = from_bits(a), from_bits(b)
    assert (x == y) == (tuple(a) == tuple(b))
    if x == y:
        assert hash(x) == hash(y)
    assert x != tuple(a)


def test_leading_zeros_are_part_of_the_string():
    assert BitString.from_text("01") != BitString.from_text("1")
    assert BitString.from_text("") != BitString.from_text("0")
    assert len({BitString.from_text(t) for t in ("", "0", "00", "1", "01")}) == 5


@pytest.mark.parametrize("text", ["2", "x", "0 1", "+1", "1_0", "-1"])
def test_from_text_rejects_non_bits(text):
    with pytest.raises(ValueError):
        BitString.from_text(text)


@pytest.mark.parametrize("value, length", [(4, 2), (-1, 3), (0, -1)])
def test_value_must_fit_length(value, length):
    with pytest.raises(ValueError):
        BitString(value, length)
