"""Tests for the Bluetooth GFSK PHY."""

import numpy as np
import pytest

from repro.channel.awgn import awgn_at_snr
from repro.dsp.mixing import square_wave_mix
from repro.phy.ble import BleReceiver, BleTransmitter, Whitener
from repro.phy.ble.frame import BleFrameBuilder, MAX_PAYLOAD_BYTES
from repro.phy.ble.gfsk import GfskModem
from repro.phy.ble.whitening import dewhiten, whiten
from repro.utils.bits import random_bits


class TestWhitening:
    def test_involution(self, rng):
        bits = random_bits(300, rng)
        assert np.array_equal(dewhiten(whiten(bits, 21), 21), bits)

    def test_channel_dependence(self, rng):
        bits = random_bits(64, rng)
        assert not np.array_equal(whiten(bits, 0), whiten(bits, 39))

    def test_invalid_channel_raises(self):
        with pytest.raises(ValueError):
            Whitener(40)

    def test_linearity(self, rng):
        """Complementing whitened bits complements de-whitened output —
        the property the Bluetooth codeword swap relies on."""
        bits = random_bits(120, rng)
        tx = whiten(bits, 37)
        tx[40:80] ^= 1
        out = dewhiten(tx, 37)
        assert np.array_equal(out[40:80], bits[40:80] ^ 1)
        assert np.array_equal(out[:40], bits[:40])

    @pytest.mark.parametrize("channel", [0, 21, 37, 39])
    @pytest.mark.parametrize("n", [0, 1, 126, 127, 128, 1000])
    def test_keystream_equals_bit_serial_register(self, channel, n):
        """The period-127 keystream and the register it leaves behind
        match n single-step ``next_bit`` calls."""
        fast, serial = Whitener(channel), Whitener(channel)
        ks = fast.keystream(n)
        ref = np.array([serial.next_bit() for _ in range(n)],
                       dtype=np.uint8)
        assert ks.dtype == np.uint8 and ks.tobytes() == ref.tobytes()
        assert fast.state == serial.state
        # The stream keeps agreeing after the jump.
        assert [fast.next_bit() for _ in range(130)] == \
            [serial.next_bit() for _ in range(130)]

    @pytest.mark.parametrize("n", [0, 1, 126, 127, 128, 1000])
    def test_process_equals_bit_serial_xor(self, rng, n):
        bits = random_bits(n, rng)
        w, serial = Whitener(37), Whitener(37)
        out = w.process(bits)
        ref = bits ^ np.array([serial.next_bit() for _ in range(n)],
                              dtype=np.uint8)
        assert out.tobytes() == ref.tobytes()
        assert w.state == serial.state

    def test_keystream_is_a_fresh_writable_array(self):
        a = Whitener(37).keystream(200)
        a[:] ^= 1  # must not corrupt the cached period
        assert Whitener(37).keystream(200).tobytes() == (a ^ 1).tobytes()


class TestGfsk:
    def test_round_trip(self, rng):
        modem = GfskModem(sps=8)
        bits = random_bits(200, rng)
        assert np.array_equal(modem.demodulate(modem.modulate(bits), 200),
                              bits)

    def test_constant_envelope(self, rng):
        modem = GfskModem(sps=8)
        wave = modem.modulate(random_bits(100, rng))
        assert np.allclose(np.abs(wave), 1.0)

    def test_deviation_is_250khz(self):
        modem = GfskModem(sps=8)
        assert modem.deviation_hz == pytest.approx(250e3)

    def test_long_run_reaches_full_deviation(self):
        modem = GfskModem(sps=8)
        wave = modem.modulate(np.ones(50, dtype=np.uint8))
        inst = modem.discriminate(wave)[200:300]
        f_hz = inst.mean() * modem.sample_rate_hz / (2 * np.pi)
        assert f_hz == pytest.approx(250e3, rel=0.02)

    def test_channel_filter_removes_out_of_band(self):
        modem = GfskModem(sps=8)
        n = 4096
        t = np.arange(n) / modem.sample_rate_hz
        inband = np.exp(2j * np.pi * 200e3 * t)
        outband = np.exp(2j * np.pi * 2.5e6 * t)
        fi = modem.channel_filter(inband)
        fo = modem.channel_filter(outband)
        assert np.mean(np.abs(fi[500:-500]) ** 2) > 0.8
        assert np.mean(np.abs(fo[500:-500]) ** 2) < 0.02


class TestFraming:
    def test_round_trip(self):
        builder = BleFrameBuilder()
        payload = b"freerider-bluetooth"
        bits = builder.build_bits(payload)
        out, crc_ok = builder.parse_bits(bits)
        assert crc_ok and out == payload

    def test_n_bits(self):
        builder = BleFrameBuilder()
        assert builder.build_bits(b"abc").size == builder.n_bits(3)

    def test_wrong_access_address_rejected(self):
        a = BleFrameBuilder(access_address=0x12345678)
        b = BleFrameBuilder()  # default AA
        bits = a.build_bits(b"zz")
        payload, ok = b.parse_bits(bits)
        assert payload is None and not ok

    def test_corruption_flagged_by_crc(self):
        builder = BleFrameBuilder()
        bits = builder.build_bits(b"hello-world").copy()
        bits[60] ^= 1
        payload, ok = builder.parse_bits(bits)
        assert not ok

    def test_payload_size_limits(self):
        with pytest.raises(ValueError):
            BleFrameBuilder().build_bits(b"")
        with pytest.raises(ValueError):
            BleFrameBuilder().build_bits(bytes(MAX_PAYLOAD_BYTES + 1))


class TestChain:
    def test_clean_round_trip(self):
        tx = BleTransmitter(seed=6)
        payload = tx.random_payload(80)
        frame = tx.build(payload)
        res = BleReceiver().decode(frame.samples, frame.n_bits)
        assert res.ok and res.payload == payload

    def test_noisy_round_trip(self, rng):
        tx = BleTransmitter(seed=6)
        payload = tx.random_payload(80)
        frame = tx.build(payload)
        noisy = awgn_at_snr(frame.samples, 18.0, rng)
        res = BleReceiver().decode(noisy, frame.n_bits)
        assert res.ok and res.payload == payload

    def test_bit_rate(self):
        tx = BleTransmitter(seed=1)
        frame = tx.build(bytes(100))
        assert frame.duration_us == pytest.approx(frame.n_bits, rel=1e-6)

    def test_codeword_swap_via_square_wave(self):
        """Equation (6): toggling at |f1-f0| = 500 kHz swaps the decoded
        bits (up to transition-boundary errors)."""
        tx = BleTransmitter(seed=2)
        frame = tx.build(tx.random_payload(60))
        rx = BleReceiver()
        clean = rx.decode_bits(frame.samples, frame.n_bits)
        swapped = rx.decode_bits(
            square_wave_mix(frame.samples, 500e3, frame.sample_rate_hz),
            frame.n_bits)
        flip_fraction = float(np.mean(clean != swapped))
        assert flip_fraction > 0.8
