"""The int-backed BitString against a plain tuple-of-bits model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treekd.bits import BitString

bit_lists = st.lists(st.integers(0, 1), max_size=40)


@st.composite
def equal_length_pairs(draw):
    a = draw(bit_lists)
    b = draw(st.lists(st.integers(0, 1), min_size=len(a), max_size=len(a)))
    return a, b


@given(bit_lists)
def test_text_round_trip(bits):
    text = "".join(map(str, bits))
    s = BitString.from_text(text)
    assert str(s) == text
    assert repr(s) == f"BitString({text})"
    assert s == BitString.from_bits(bits)
    assert s.value == (int(text, 2) if text else 0)


@given(bit_lists, bit_lists)
def test_equality_and_hash(a, b):
    x, y = BitString.from_bits(a), BitString.from_bits(b)
    assert (x == y) == (tuple(a) == tuple(b))
    if x == y:
        assert hash(x) == hash(y)
    assert x != tuple(a)


def test_leading_zeros_are_part_of_the_string():
    assert BitString.from_text("01") != BitString.from_text("1")
    assert BitString.from_text("") != BitString.from_text("0")
    assert len({BitString.from_text(t) for t in ("", "0", "00", "1", "01")}) == 5


@given(bit_lists, st.integers(-50, 50))
def test_iteration_length_and_indexing(bits, i):
    s = BitString.from_bits(bits)
    model = tuple(bits)
    assert len(s) == len(model)
    assert tuple(s) == model
    if -len(model) <= i < len(model):
        assert s[i] == model[i]
    else:
        with pytest.raises(IndexError):
            s[i]


@given(equal_length_pairs())
def test_xor_and_hamming(pair):
    a, b = pair
    x, y = BitString.from_bits(a), BitString.from_bits(b)
    assert tuple(x ^ y) == tuple(p ^ q for p, q in zip(a, b))
    assert x.hamming(y) == sum(p != q for p, q in zip(a, b))
    assert x.weight() == sum(a)


@given(bit_lists, st.data())
def test_take_keeps_order_and_repeats(bits, data):
    s = BitString.from_bits(bits)
    positions = []
    if bits:
        index = st.integers(-len(bits), len(bits) - 1)
        positions = data.draw(st.lists(index, max_size=12))
    assert tuple(s.take(positions)) == tuple(bits[i] for i in positions)
    with pytest.raises(IndexError):
        s.take([len(bits)])


@given(equal_length_pairs(), st.integers(0, 1))
def test_length_mismatch_raises(pair, bit):
    a, _ = pair
    x, longer = BitString.from_bits(a), BitString.from_bits(a + [bit])
    with pytest.raises(ValueError, match="length mismatch in XOR"):
        x ^ longer
    with pytest.raises(ValueError, match="length mismatch in Hamming distance"):
        x.hamming(longer)


@pytest.mark.parametrize("text", ["2", "x", "0 1", "+1", "1_0", "-1"])
def test_from_text_rejects_non_bits(text):
    with pytest.raises(ValueError):
        BitString.from_text(text)


@pytest.mark.parametrize("value, length", [(4, 2), (-1, 3), (0, -1)])
def test_value_must_fit_length(value, length):
    with pytest.raises(ValueError):
        BitString(value, length)
