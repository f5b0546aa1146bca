"""Tests for the 802.11 convolutional code + Viterbi (equation 9)."""

import numpy as np
import pytest

from repro.phy.wifi.convolutional import (
    CODE_802_11,
    PUNCTURE_PATTERNS,
    ConvolutionalCode,
)
from repro.utils.bits import random_bits

RATES = [(1, 2), (2, 3), (3, 4)]
K3_CODE = ConvolutionalCode(0o5, 0o7, 3)


def walk_encode(code, bits, rate):
    """Reference encoder: step the shift register one input bit at a
    time, then drop the punctured positions."""
    k = code.constraint_length
    state, coded = 0, []
    for b in bits:
        reg = (int(b) << (k - 1)) | state
        coded += [bin(reg & code.g0).count("1") & 1,
                  bin(reg & code.g1).count("1") & 1]
        state = reg >> 1
    pattern = PUNCTURE_PATTERNS[rate]
    keep = np.resize(pattern, len(coded)).astype(bool)
    return np.array(coded, dtype=np.uint8)[keep]


def rowwise_decode(code, block, rate=(1, 2), soft=True):
    """The scalar decoder, one row at a time: the batch oracle."""
    return np.stack([code.decode(row, rate, soft=soft) for row in block])


def special_llrs(rng, shape, density):
    """Gaussian LLRs with a *density* share of +/-0, +/-inf and NaN."""
    llr = rng.normal(0.0, 1.5, shape)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    hit = rng.random(shape) < density
    llr[hit] = rng.choice(specials, size=int(hit.sum()))
    return llr


class TestEncoder:
    def test_rate_half_doubles_length(self, rng):
        bits = random_bits(100, rng)
        assert CODE_802_11.encode(bits).size == 200

    def test_rate_two_thirds_length(self, rng):
        bits = random_bits(100, rng)
        assert CODE_802_11.encode(bits, (2, 3)).size == 150

    def test_rate_three_quarters_length(self, rng):
        bits = random_bits(99, rng)
        assert CODE_802_11.encode(bits, (3, 4)).size == 132

    def test_equation_9_of_paper(self, rng):
        """C1[k] = b[k]^b[k-2]^b[k-3]^b[k-5]^b[k-6],
        C2[k] = b[k]^b[k-1]^b[k-2]^b[k-3]^b[k-6]."""
        b = random_bits(64, rng).astype(int)
        coded = CODE_802_11.encode(b)

        def bit(k):
            return b[k] if k >= 0 else 0

        for k in range(64):
            c1 = (bit(k) ^ bit(k - 2) ^ bit(k - 3) ^ bit(k - 5) ^ bit(k - 6))
            c2 = (bit(k) ^ bit(k - 1) ^ bit(k - 2) ^ bit(k - 3) ^ bit(k - 6))
            assert coded[2 * k] == c1
            assert coded[2 * k + 1] == c2

    def test_unknown_rate_raises(self, rng):
        with pytest.raises(ValueError):
            CODE_802_11.encode(random_bits(8, rng), (5, 6))

    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("n_bits", [0, 1, 2, 7, 100, 101])
    def test_matches_state_walk(self, rng, rate, n_bits):
        bits = random_bits(n_bits, rng)
        for code in (CODE_802_11, K3_CODE):
            out = code.encode(bits, rate)
            assert out.dtype == np.uint8
            assert np.array_equal(out, walk_encode(code, bits, rate))

    def test_complement_property(self, rng):
        """Complementing the input stream complements the steady-state
        output (section 3.2.1: both generators have an odd tap count)."""
        bits = random_bits(200, rng)
        a = CODE_802_11.encode(bits)
        b = CODE_802_11.encode(bits ^ 1)
        # Skip the 6-bit memory fill at the start.
        assert np.array_equal(a[12:] ^ 1, b[12:])


class TestViterbi:
    @pytest.mark.parametrize("rate", [(1, 2), (2, 3), (3, 4)])
    def test_noiseless_round_trip(self, rng, rate):
        bits = random_bits(240, rng)
        coded = CODE_802_11.encode(bits, rate)
        assert np.array_equal(CODE_802_11.decode(coded, rate), bits)

    def test_corrects_bit_errors(self, rng):
        bits = random_bits(300, rng)
        coded = CODE_802_11.encode(bits)
        # ~2 % random coded-bit errors, spread out.
        err_at = rng.choice(coded.size, size=coded.size // 50, replace=False)
        coded[err_at] ^= 1
        assert np.array_equal(CODE_802_11.decode(coded), bits)

    def test_soft_decoding_round_trip(self, rng):
        bits = random_bits(150, rng)
        coded = CODE_802_11.encode(bits)
        llrs = (1.0 - 2.0 * coded.astype(float))
        llrs += rng.normal(0, 0.4, llrs.size)
        assert np.array_equal(CODE_802_11.decode(llrs, soft=True), bits)

    def test_soft_beats_hard_at_low_snr(self, rng):
        bits = random_bits(800, rng)
        coded = CODE_802_11.encode(bits)
        symbols = 1.0 - 2.0 * coded.astype(float)
        noisy = symbols + rng.normal(0, 0.9, symbols.size)
        hard = (noisy < 0).astype(np.uint8)
        err_soft = int(np.sum(CODE_802_11.decode(noisy, soft=True) != bits))
        err_hard = int(np.sum(CODE_802_11.decode(hard) != bits))
        assert err_soft <= err_hard

    def test_empty_input(self):
        assert CODE_802_11.decode(np.zeros(0)).size == 0


@pytest.mark.filterwarnings("ignore:invalid value encountered")
class TestDecodeBatch:
    """decode_batch must equal the scalar decoder row for row."""

    @pytest.mark.parametrize("rate", RATES)
    def test_empty_batch_keeps_step_count(self, rate):
        out = CODE_802_11.decode_batch(np.zeros((0, 96)), rate, soft=True)
        n_steps = CODE_802_11.decode(np.zeros(96), rate, soft=True).size
        assert out.shape == (0, n_steps)
        assert out.dtype == np.uint8

    @pytest.mark.parametrize("density", [0.02, 0.3, 1.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_special_values(self, density, seed):
        block = special_llrs(np.random.default_rng(seed), (5, 160), density)
        assert np.array_equal(CODE_802_11.decode_batch(block, soft=True),
                              rowwise_decode(CODE_802_11, block))

    def test_infinities_of_opposite_sign_in_one_pair(self):
        # le + lo is NaN while le - lo is infinite.
        block = np.ones((3, 40))
        block[0, 10], block[0, 11] = np.inf, -np.inf
        block[1, 20], block[1, 21] = -np.inf, np.inf
        block[2, ::2], block[2, 1::2] = np.inf, -np.inf
        assert np.array_equal(CODE_802_11.decode_batch(block, soft=True),
                              rowwise_decode(CODE_802_11, block))

    @pytest.mark.parametrize("rate", RATES)
    def test_all_zero_llrs_tie_to_slot_zero(self, rate):
        block = np.zeros((3, 72))
        out = CODE_802_11.decode_batch(block, rate, soft=True)
        assert np.array_equal(out, rowwise_decode(CODE_802_11, block, rate))
        block = np.full((2, 72), -0.0)
        out = CODE_802_11.decode_batch(block, rate, soft=True)
        assert np.array_equal(out, rowwise_decode(CODE_802_11, block, rate))

    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("length", [1, 2, 3, 5, 47, 97, 144])
    def test_rates_and_lengths(self, rng, rate, length):
        block = rng.normal(0.0, 1.0, (4, length))
        out = CODE_802_11.decode_batch(block, rate, soft=True)
        assert np.array_equal(out, rowwise_decode(CODE_802_11, block, rate))

    @pytest.mark.parametrize("rate", RATES)
    def test_noisy_frames(self, rng, rate):
        bits = random_bits(300, rng)
        coded = CODE_802_11.encode(bits, rate)
        block = (1.0 - 2.0 * coded)[None, :] \
            + rng.normal(0.0, 0.9, (6, coded.size))
        out = CODE_802_11.decode_batch(block, rate, soft=True)
        assert np.array_equal(out, rowwise_decode(CODE_802_11, block, rate))

    def test_single_row(self, rng):
        block = special_llrs(rng, (1, 120), 0.1)
        out = CODE_802_11.decode_batch(block, soft=True)
        assert out.shape == (1, 60)
        assert np.array_equal(out, rowwise_decode(CODE_802_11, block))
        assert np.array_equal(CODE_802_11.decode_batch(block[0], soft=True),
                              out)

    def test_hard_bits(self, rng):
        block = rng.integers(0, 2, (4, 90)).astype(np.uint8)
        for rate in RATES:
            out = CODE_802_11.decode_batch(block, rate)
            assert np.array_equal(
                out, rowwise_decode(CODE_802_11, block, rate, soft=False))

    @pytest.mark.parametrize("rate", RATES)
    def test_k3_code(self, rng, rate):
        block = special_llrs(rng, (5, 61), 0.1)
        out = K3_CODE.decode_batch(block, rate, soft=True)
        assert np.array_equal(out, rowwise_decode(K3_CODE, block, rate))

    def test_k3_round_trip(self, rng):
        bits = random_bits(64, rng)
        coded = K3_CODE.encode(bits)
        assert np.array_equal(K3_CODE.decode_batch(coded[None, :])[0], bits)

    def test_unknown_rate_raises(self):
        with pytest.raises(ValueError):
            CODE_802_11.decode_batch(np.zeros((2, 8)), (5, 6))


class TestCustomCode:
    def test_k3_code_round_trip(self, rng):
        code = ConvolutionalCode(g0=0o5, g1=0o7, constraint_length=3)
        bits = random_bits(64, rng)
        assert np.array_equal(code.decode(code.encode(bits)), bits)

    def test_n_states(self):
        assert CODE_802_11.n_states == 64
        assert ConvolutionalCode(0o5, 0o7, 3).n_states == 4
