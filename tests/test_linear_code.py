import time
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TIED_6_3, coset_leader_decode, word_of
from treekd.linear_code import (
    code_by_name,
    decode_to_codeword,
    hamming_7_4,
    index_of,
    random_codeword,
    repetition_code,
)
from treekd.rng import SeededRng


# (code, A rows) with G = [I_k | A], the rows written out independently.
TABULATED = [
    pytest.param(hamming_7_4(), ((1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)), id="hamming7_4"),
    *[
        pytest.param(repetition_code(m), ((1,) * (m - 1),), id=f"repetition{m}")
        for m in (1, 3, 5, 15)
    ],
    pytest.param(TIED_6_3, ((1, 1, 0), (0, 1, 1), (1, 0, 0)), id="tied6_3"),
]


class TestCodewordTable:
    @pytest.mark.parametrize("code, a_rows", TABULATED)
    def test_every_codeword_is_message_times_generator(self, code, a_rows):
        g = [[int(j == i) for j in range(code.k)] + list(a_rows[i]) for i in range(code.k)]
        assert len(code.codewords) == 1 << code.k
        for index, codeword in enumerate(code.codewords):
            message = [index >> (code.k - 1 - i) & 1 for i in range(code.k)]
            product_bits = [
                sum(message[i] * g[i][j] for i in range(code.k)) % 2 for j in range(code.m)
            ]
            assert codeword == word_of(product_bits)

    @pytest.mark.parametrize("code, a_rows", TABULATED)
    def test_index_of_rejects_wrong_lengths_and_non_codewords(self, code, a_rows):
        # The last codeword has all k message bits set, so a first-k-bits
        # read of the longer word would index past the table's end, and of
        # a negative word below its start.
        last = code.codewords[-1]
        for word in (last << 1 | 1, -1, -(2 << code.m)):
            with pytest.raises(ValueError, match="is not a codeword"):
                index_of(code, word)
        if code.m > code.k:  # flipping a parity bit leaves the code
            with pytest.raises(ValueError, match="is not a codeword"):
                index_of(code, last ^ 1)


class TestHamming74:
    def test_parameters(self):
        code = hamming_7_4()
        assert (code.m, code.k, code.t) == (7, 4, 1)
        assert len(code.codewords) == 16

    def test_zero_maps_to_zero(self):
        zero = hamming_7_4().codewords[0]
        assert zero == 0b0000000

    def test_minimum_nonzero_weight_is_3(self):
        weights = [c.bit_count() for c in hamming_7_4().codewords if c]
        assert min(weights) == 3


class TestRepetition:
    def test_m3(self):
        code = repetition_code(3)
        assert (code.m, code.k, code.t) == (3, 1, 1)
        assert set(code.codewords) == {0b000, 0b111}

    def test_m1_identity(self):
        code = repetition_code(1)
        assert (code.m, code.k, code.t) == (1, 1, 0)

    def test_majority_vote(self):
        code = repetition_code(3)
        cw, err = decode_to_codeword(code, 0b110)
        assert cw == 0b111 and err == 0b001
        cw, _ = decode_to_codeword(code, 0b101)
        assert cw == 0b111

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            repetition_code(4)


class TestEncode:
    def test_linearity(self):
        code = hamming_7_4()
        for x, y in product(range(16), repeat=2):
            ex = code.codewords[x]
            ey = code.codewords[y]
            assert (ex ^ ey) == code.codewords[x ^ y]

    def test_all_encodings_distinct(self):
        for code in (hamming_7_4(), repetition_code(5)):
            words = code.codewords
            assert len(set(words)) == len(words)


class TestDecode:
    def test_codeword_unchanged(self):
        code = hamming_7_4()
        for cw in code.codewords:
            decoded, err = decode_to_codeword(code, cw)
            assert decoded == cw
            assert err == 0

    def test_all_single_flips_corrected(self):
        # 16 codewords x 7 positions = 112 exhaustive cases
        code = hamming_7_4()
        cases = 0
        for cw in code.codewords:
            for pos in range(7):
                flip = word_of(1 if i == pos else 0 for i in range(7))
                decoded, err = decode_to_codeword(code, cw ^ flip)
                assert decoded == cw
                assert err == flip
                cases += 1
        assert cases == 112

    def test_radius_t_exact_for_all_codes(self):
        for code in (hamming_7_4(), repetition_code(3), repetition_code(7)):
            for cw in code.codewords:
                for w in range(code.t + 1):
                    for positions in combinations(range(code.m), w):
                        e = word_of(1 if i in positions else 0 for i in range(code.m))
                        decoded, _ = decode_to_codeword(code, cw ^ e)
                        assert decoded == cw

    def test_decoded_word_is_a_codeword(self):
        code = hamming_7_4()
        for value in range(1 << code.m):
            word = word_of((value >> i) & 1 for i in range(code.m))
            decoded, _ = decode_to_codeword(code, word)
            index_of(code, decoded)  # raises ValueError otherwise

    @pytest.mark.parametrize(
        "code",
        [hamming_7_4()] + [repetition_code(m) for m in range(1, 12, 2)]
        + [TIED_6_3],
        ids=lambda code: f"{code.m}_{code.k}",
    )
    def test_matches_coset_leader_oracle_on_every_word(self, code):
        for value in range(1 << code.m):
            assert decode_to_codeword(code, value) == coset_leader_decode(code, value)

    @pytest.mark.parametrize("code, a_rows", TABULATED)
    def test_rejects_words_outside_m_bits(self, code, a_rows):
        for word in (-1, -(1 << code.m), 1 << code.m, (1 << code.m + 1) - 1):
            with pytest.raises(ValueError, match=f"does not fit in m={code.m} bits"):
                decode_to_codeword(code, word)

    def test_tie_goes_to_earliest_error(self):
        # 001000 and 000100 are each at distance 1 from 000000 and 001100.
        for word, codeword in ((0b001000, 0b000000), (0b000100, 0b001100)):
            decoded, err = decode_to_codeword(TIED_6_3, word)
            assert (decoded, err) == (codeword, 0b001000)

    @settings(max_examples=40, deadline=None)
    @given(m=st.sampled_from([13, 15]), data=st.data())
    def test_matches_coset_leader_oracle_on_long_repetition(self, m, data):
        code = repetition_code(m)
        word = word_of(data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)))
        assert decode_to_codeword(code, word) == coset_leader_decode(code, word)

    def test_weight_two_miscorrects_to_some_codeword(self):
        code = hamming_7_4()
        cw = code.codewords[5]
        e = 0b1100000
        decoded, _ = decode_to_codeword(code, cw ^ e)
        assert decoded != cw  # beyond radius: defined miscorrection
        index_of(code, decoded)  # still a valid codeword


class TestIndexing:
    def test_round_trip_all_indices(self):
        for code in (hamming_7_4(), repetition_code(5)):
            for i in range(1 << code.k):
                assert index_of(code, code.codewords[i]) == i

    def test_zero_codeword_is_index_zero(self):
        assert index_of(hamming_7_4(), 0b0000000) == 0

    def test_non_codeword_rejected(self):
        with pytest.raises(ValueError, match="is not a codeword"):
            index_of(hamming_7_4(), 0b1000000)


class TestRandomCodeword:
    def test_pair_is_consistent(self):
        code = hamming_7_4()
        idx, cw = random_codeword(code, SeededRng(8))
        assert code.codewords[idx] == cw

    def test_roughly_uniform(self):
        code = hamming_7_4()
        rng = SeededRng(404)
        counts = [0] * 16
        for _ in range(10**4):
            idx, _ = random_codeword(code, rng)
            counts[idx] += 1
        assert all(abs(c - 625) <= 100 for c in counts)

    def test_repetition_index_binary(self):
        code = repetition_code(3)
        rng = SeededRng(1)
        assert {random_codeword(code, rng)[0] for _ in range(50)} == {0, 1}


class TestCodeByName:
    def test_names(self):
        assert code_by_name("hamming7_4").m == 7
        assert code_by_name("repetition5").m == 5

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            code_by_name("golay23")

    def test_long_repetition_builds_in_linear_time(self):
        # Growing the A row one bit at a time made this build quadratic in m.
        start = time.perf_counter()
        code = code_by_name("repetition1000001")
        assert time.perf_counter() - start < 0.5
        m = 1000001
        assert (code.m, code.k, code.t) == (m, 1, 500000)
        assert code.codewords == (0, (1 << m) - 1)

    def test_repetition17_corrects_8_errors(self):
        code = code_by_name("repetition17")
        assert (code.m, code.k, code.t) == (17, 1, 8)
        zeros, ones = code.codewords
        for cw in (zeros, ones):
            for w in range(9):
                for e in ("1" * w + "0" * (17 - w), "0" * (17 - w) + "1" * w):
                    decoded, _ = decode_to_codeword(code, cw ^ int(e, 2))
                    assert decoded == cw
        nine = int("1" * 9 + "0" * 8, 2)
        assert decode_to_codeword(code, zeros ^ nine)[0] == ones
