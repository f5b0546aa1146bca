"""Tests for the 802.11 scrambler (paper Figure 7 / equation 8)."""

import numpy as np
import pytest

from repro.phy.wifi.scrambler import (
    Scrambler,
    descramble,
    scramble,
    scrambler_sequence,
)
from repro.utils.bits import random_bits


class TestKeystream:
    def test_period_127(self):
        ks = scrambler_sequence(0b1011101, 254)
        assert np.array_equal(ks[:127], ks[127:])

    def test_all_ones_seed_reference(self):
        """IEEE 802.11 gives the first bits of the all-ones-seed sequence:
        0000111011110010 11001001..."""
        ks = scrambler_sequence(0x7F, 16)
        assert list(ks) == [0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0]

    def test_nonzero_balance(self):
        # A maximal-length sequence has 64 ones and 63 zeros per period.
        ks = scrambler_sequence(1, 127)
        assert int(ks.sum()) == 64

    def test_no_seven_zero_run(self):
        # Needed by seed recovery: 7 consecutive keystream zeros never occur.
        ks = scrambler_sequence(45, 254)
        run = 0
        for b in ks:
            run = run + 1 if b == 0 else 0
            assert run < 7


class TestScrambleDescramble:
    def test_involution(self, rng):
        data = random_bits(500, rng)
        assert np.array_equal(descramble(scramble(data, 33), 33), data)

    def test_seed_matters(self, rng):
        data = random_bits(100, rng)
        assert not np.array_equal(scramble(data, 1), scramble(data, 2))

    def test_whitens_all_zeros(self):
        out = scramble(np.zeros(100, dtype=np.uint8), 91)
        assert 20 < out.sum() < 80  # no long constant runs

    def test_invalid_seed_raises(self):
        with pytest.raises(ValueError):
            Scrambler(0)
        with pytest.raises(ValueError):
            Scrambler(128)


class TestLinearity:
    def test_xor_linearity(self, rng):
        """scramble(a ^ b) == scramble(a) ^ keystream-free b — the property
        codeword translation relies on (section 3.2.1)."""
        a = random_bits(256, rng)
        b = random_bits(256, rng)
        lhs = scramble(np.bitwise_xor(a, b), 77)
        rhs = np.bitwise_xor(scramble(a, 77), b)
        assert np.array_equal(lhs, rhs)

    def test_complement_window_survives(self, rng):
        """Complementing a window of scrambled bits yields the complement
        of the descrambled window."""
        data = random_bits(300, rng)
        tx = scramble(data, 55)
        tx[100:200] ^= 1
        out = descramble(tx, 55)
        assert np.array_equal(out[:100], data[:100])
        assert np.array_equal(out[100:200], data[100:200] ^ 1)
        assert np.array_equal(out[200:], data[200:])


class TestState:
    def test_state_tracks_outputs(self):
        s = Scrambler(0b1011101)
        outputs = [s.next_bit() for _ in range(7)]
        # After 7 steps the state is exactly the last 7 outputs.
        expected = 0
        for b in outputs:
            expected = ((expected << 1) | b) & 0x7F
        assert s.state == expected

    @pytest.mark.parametrize("n", [0, 1, 6, 7, 126, 127, 128, 254, 300])
    def test_process_advances_state_like_next_bit(self, rng, n):
        for seed in (1, 0b1011101, 127):
            fast, slow = Scrambler(seed), Scrambler(seed)
            data = random_bits(n, rng)
            out = fast.process(data)
            keystream = np.array([slow.next_bit() for _ in range(n)],
                                 dtype=np.uint8)
            assert np.array_equal(out, data ^ keystream)
            assert fast.state == slow.state
            # A second call continues the same stream.
            more = random_bits(9, rng)
            tail = np.array([slow.next_bit() for _ in range(9)],
                            dtype=np.uint8)
            assert np.array_equal(fast.process(more), more ^ tail)
            assert fast.state == slow.state
