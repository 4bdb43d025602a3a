import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treekd.bits import BitString
from treekd.channel_sim import (
    Transcript,
    broadcast,
    combined_flip_probability,
    simulate_pairwise_kd,
)
from treekd.graph_core import WeightedEdge
from treekd.rng import SeededRng


def exhaustive_odd_flip_probability(ps):
    """Oracle: enumerate all 2^len(ps) flip patterns and sum odd-parity mass."""
    total = 0.0
    for pattern in itertools.product((0, 1), repeat=len(ps)):
        if sum(pattern) % 2 == 1:
            prob = 1.0
            for p, flipped in zip(ps, pattern):
                prob *= p if flipped else 1.0 - p
            total += prob
    return total


class TestSimulatePairwiseKd:
    def test_noiseless_correlated_identical(self):
        edge = WeightedEdge(0, 1, flip_prob=0.0)
        bits_a, bits_b = simulate_pairwise_kd(edge, 8, SeededRng(1))
        assert bits_a == bits_b

    def test_mismatch_rate_concentrates_at_flip_prob(self):
        edge = WeightedEdge(0, 1, flip_prob=0.05)
        bits_a, bits_b = simulate_pairwise_kd(edge, 10**5, SeededRng(20))
        rate = bits_a.hamming(bits_b) / 10**5
        assert abs(rate - 0.05) <= 0.005

    def test_determinism(self):
        edge = WeightedEdge(0, 1, flip_prob=0.2)
        m1 = simulate_pairwise_kd(edge, 64, SeededRng(9))
        m2 = simulate_pairwise_kd(edge, 64, SeededRng(9))
        assert m1 == m2

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            simulate_pairwise_kd(WeightedEdge(0, 1), 0, SeededRng(0))


class TestTranscript:
    def test_append_from_empty(self):
        t = Transcript()
        broadcast(t, 0, "terminal_choice", "1")
        assert t.lines == ["0 0 terminal_choice 1"]

    def test_append_order_preserved(self):
        t = Transcript()
        for i in range(3):
            broadcast(t, i, "terminal_choice", str(i))
        assert t.lines == [f"{i} {i} terminal_choice {i}" for i in range(3)]


class TestCombinedFlipProbability:
    def test_empty_path(self):
        assert combined_flip_probability([]) == 0.0

    def test_single_link_identity(self):
        assert combined_flip_probability([0.3]) == pytest.approx(0.3)

    def test_two_links(self):
        # Oracle: of the 4 outcomes of two Bernoulli(0.05) flips, the
        # odd-parity ones carry 2 * 0.05 * 0.95 = 0.095.
        assert exhaustive_odd_flip_probability([0.05, 0.05]) == pytest.approx(0.095)
        assert combined_flip_probability([0.05, 0.05]) == pytest.approx(0.095)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=0.499), min_size=0, max_size=10)
    )
    @settings(max_examples=200)
    def test_matches_exhaustive_enumeration(self, ps):
        assert combined_flip_probability(ps) == pytest.approx(
            exhaustive_odd_flip_probability(ps), abs=1e-12
        )

    def test_rejects_half(self):
        with pytest.raises(ValueError):
            combined_flip_probability([0.5])


class TestBitString:
    def test_xor_and_complement(self):
        a = BitString.from_text("0110")
        b = BitString.from_text("0011")
        assert str(a ^ b) == "0101"
        assert str(a ^ BitString.from_text("1111")) == "1001"

    def test_hamming_and_weight(self):
        a = BitString.from_text("10110")
        assert a.weight() == 3
        assert a.hamming(BitString.from_text("00000")) == 3

    def test_take(self):
        a = BitString.from_text("10110")
        assert str(a.take([0, 2, 4])) == "110"

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=32))
    def test_xor_involution(self, bits):
        a = BitString.from_bits(bits)
        assert (a ^ a) == BitString.from_text("0" * len(bits))
        ones = BitString.from_text("1" * len(bits))
        assert (a ^ ones) ^ ones == a

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BitString.from_bits([0, 2])


class TestSeededRng:
    def test_same_seed_same_stream(self):
        assert BitString.random(64, SeededRng(5)) == BitString.random(64, SeededRng(5))

    def test_substreams_are_independent_of_draw_order(self):
        root = SeededRng(5)
        a_first = root.substream("a").randrange(1 << 30)
        root2 = SeededRng(5)
        root2.substream("b").randrange(1 << 30)
        assert a_first == root2.substream("a").randrange(1 << 30)

    def test_distinct_labels_distinct_streams(self):
        root = SeededRng(5)
        assert root.substream("x").seed != root.substream("y").seed
