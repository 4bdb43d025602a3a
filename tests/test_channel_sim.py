import hashlib
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import word_of
from treekd.bits import BitString
from treekd.channel_sim import broadcast, simulate_pairwise_kd
from treekd.graph_core import WeightedEdge
from treekd.rng import SeededRng


class TestSimulatePairwiseKd:
    def test_noiseless_correlated_identical(self):
        edge = WeightedEdge(0, 1, flip_prob=0.0)
        bits_a, bits_b = simulate_pairwise_kd(edge, 8, SeededRng(1))
        assert bits_a == bits_b

    def test_mismatch_rate_concentrates_at_flip_prob(self):
        edge = WeightedEdge(0, 1, flip_prob=0.05)
        word_a, word_b = simulate_pairwise_kd(edge, 10**5, SeededRng(20))
        rate = (word_a ^ word_b).bit_count() / 10**5
        assert abs(rate - 0.05) <= 0.005

    def test_determinism(self):
        edge = WeightedEdge(0, 1, flip_prob=0.2)
        m1 = simulate_pairwise_kd(edge, 64, SeededRng(9))
        m2 = simulate_pairwise_kd(edge, 64, SeededRng(9))
        assert m1 == m2

    @given(
        a=st.integers(0, 30),
        b=st.integers(0, 30),
        length=st.integers(1, 64),
        flip=st.floats(0.0, 0.5, exclude_max=True),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_draws_as_bit_then_random_calls(self, a, b, length, flip, seed):
        # The per-draw definition: `length` calls of getrandbits(1) give the
        # a-side, most significant first, then `length` calls of
        # random() < flip give the noise.  The streams must also end in the
        # same state.
        edge = WeightedEdge(a, b, flip_prob=flip)
        fast, slow = SeededRng(seed), SeededRng(seed).generator()
        word_a, word_b = simulate_pairwise_kd(edge, length, fast)
        bits = [slow.getrandbits(1) for _ in range(length)]
        noise = [int(slow.random() < flip) for _ in range(length)]
        assert word_a == word_of(bits)
        assert word_a ^ word_b == word_of(noise)
        assert fast.generator().random() == slow.random()

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            simulate_pairwise_kd(WeightedEdge(0, 1), 0, SeededRng(0))


class TestTranscript:
    def test_append_from_empty(self):
        t = []
        broadcast(t, 0, "terminal_choice", "1")
        assert t == ["0 0 terminal_choice 1"]

    def test_append_order_preserved(self):
        t = []
        for i in range(3):
            broadcast(t, i, "terminal_choice", str(i))
        assert t == [f"{i} {i} terminal_choice {i}" for i in range(3)]


class TestBitString:
    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BitString.from_text("02")


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a, b = SeededRng(5).generator(), SeededRng(5).generator()
        assert [a.getrandbits(1) for _ in range(64)] == [
            b.getrandbits(1) for _ in range(64)
        ]

    def test_substreams_are_independent_of_draw_order(self):
        root = SeededRng(5)
        a_first = root.substream("a").generator().randrange(1 << 30)
        root2 = SeededRng(5)
        root2.substream("b").generator().randrange(1 << 30)
        assert a_first == root2.substream("a").generator().randrange(1 << 30)

    @given(seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(-(2**64), -1)))
    @example(seed=0)
    @example(seed=-1)
    def test_generator_state_is_random_of_seed(self, seed):
        # generator() seeds its twister in C, past Random.__init__ and
        # Random.seed: the state, gauss_next included, is Random(seed)'s.
        generator, reference = SeededRng(seed).generator(), random.Random(seed)
        assert generator.getstate() == reference.getstate()
        assert generator.gauss(0, 1) == reference.gauss(0, 1)
        assert generator.getstate() == reference.getstate()

    @pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
    @pytest.mark.parametrize(
        "labels",
        [("block", 3), ("edge", 0, 17), ("round", 13), ("check",), ("code",),
         ("sweep", 4)],
        ids=["block", "edge", "round", "check", "code", "sweep"],
    )
    def test_substream_seed_is_sha256_prefix(self, seed, labels):
        # Every label shape the engine derives: the child seed is the first
        # 8 bytes of hashlib's SHA-256 of "seed/label/...", whichever module
        # rng computes it with.
        material = "/".join(map(str, (seed, *labels))).encode("utf-8")
        expected = int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
        assert SeededRng(seed).substream(*labels).seed == expected

    def test_distinct_labels_distinct_streams(self):
        root = SeededRng(5)
        assert root.substream("x").seed != root.substream("y").seed
