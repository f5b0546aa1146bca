"""End-to-end backscatter session tests for all three radios."""

import numpy as np
import pytest

from repro.core.session import (
    BleBackscatterSession,
    SessionResult,
    WifiBackscatterSession,
    ZigbeeBackscatterSession,
)


class TestSessionResult:
    def test_ber_and_ok_counts(self):
        r = SessionResult(True, 100, 5, 1000.0)
        assert r.tag_ber == pytest.approx(0.05)
        assert r.tag_bits_ok == 95

    def test_zero_bits(self):
        assert SessionResult(False, 0, 0, 1.0).tag_ber == 0.0


class TestWifiSession:
    def test_high_snr_error_free(self):
        s = WifiBackscatterSession(seed=1, payload_bytes=256)
        for _ in range(3):
            r = s.run_packet(snr_db=25)
            assert r.delivered and r.tag_bit_errors == 0

    def test_capacity_matches_paper_rate(self):
        """1500 B at 6 Mb/s -> 501 OFDM symbols; one skipped for SERVICE,
        the envelope latency trims one more, 4 symbols per tag bit ->
        124 tag bits (~62 kb/s instantaneous; the paper's ~60 kb/s)."""
        s = WifiBackscatterSession(seed=1, payload_bytes=1500)
        assert s.capacity_bits() == 124

    def test_known_tag_bits_recovered(self, rng):
        s = WifiBackscatterSession(seed=2, payload_bytes=256)
        bits = rng.integers(0, 2, 20).astype(np.uint8)
        r = s.run_packet(snr_db=20, tag_bits=bits)
        assert r.delivered and r.tag_bit_errors == 0

    def test_low_snr_drops_packet(self):
        s = WifiBackscatterSession(seed=3, payload_bytes=256)
        r = s.run_packet(snr_db=-12)
        assert not r.delivered
        assert r.tag_bit_errors == r.tag_bits_sent  # all counted lost

    def test_envelope_gating(self, rng):
        s = WifiBackscatterSession(seed=4, payload_bytes=256)
        r = s.run_packet(snr_db=30, incident_power_dbm=-90.0, rng=rng)
        assert not r.delivered

    def test_frame_cache_invalidated_on_transmitter_swap(self):
        """Regression: the excitation template cache used to key only on
        the payload bytes, so swapping the transmitter (new rate, same
        zero-filled PSDU) served the stale old-rate frame."""
        from repro.phy.wifi.transmitter import WifiTransmitter

        s = WifiBackscatterSession(seed=1, payload_bytes=1500)
        at_6mbps = s.capacity_bits()
        s.transmitter = WifiTransmitter(12.0, seed=7)
        assert s.capacity_bits() != at_6mbps  # fresh 12 Mb/s template

    def test_frame_cache_still_hits_for_same_shape(self):
        from repro import obs

        s = WifiBackscatterSession(seed=1, payload_bytes=1500)
        with obs.collect() as reg:
            s.capacity_bits()
            s.capacity_bits()
        assert reg.counter("phy.wifi.encode_cached") == 1
        assert reg.histogram("phy.wifi.encode.seconds").count == 1

    def test_pilot_correction_breaks_decoding(self):
        """Negative control (section 3.2.1): a receiver that re-derives
        phase from pilots erases the tag's phase modulation."""
        s = WifiBackscatterSession(seed=5, payload_bytes=256,
                                   pilot_correction=True)
        bits = np.ones(10, dtype=np.uint8)  # all ones must vanish
        r = s.run_packet(snr_db=25, tag_bits=bits)
        assert r.delivered
        assert r.tag_bit_errors >= 8  # ones decoded as zeros


class TestZigbeeSession:
    def test_high_snr_error_free(self):
        s = ZigbeeBackscatterSession(seed=1)
        r = s.run_packet(snr_db=20)
        assert r.delivered and r.tag_bit_errors == 0

    def test_capacity(self):
        # 100 B payload -> 204 payload symbols / repetition 4 -> 51 bits.
        s = ZigbeeBackscatterSession(seed=1, payload_bytes=100,
                                     repetition=4)
        assert s.capacity_bits() == 51

    def test_low_snr_drops_packet(self):
        s = ZigbeeBackscatterSession(seed=2)
        r = s.run_packet(snr_db=-18)
        assert not r.delivered


class TestBleSession:
    def test_high_snr_error_free(self):
        s = BleBackscatterSession(seed=1)
        r = s.run_packet(snr_db=20)
        assert r.delivered and r.tag_bit_errors == 0

    def test_capacity_matches_paper_rate(self):
        # 255 B -> 2112 on-air bits, minus 40 header bits, /18 -> 115.
        s = BleBackscatterSession(seed=1, payload_bytes=255)
        assert s.capacity_bits() == 115

    def test_low_snr_drops_packet(self):
        s = BleBackscatterSession(seed=2)
        r = s.run_packet(snr_db=-10)
        assert not r.delivered

    def test_delta_f_violating_eq10_would_fail(self):
        """A 200 kHz toggle leaves the undesired sideband in-channel
        (equation 10 violated) and corrupts decoding."""
        good = BleBackscatterSession(seed=3, delta_f=500e3)
        bad = BleBackscatterSession(seed=3, delta_f=200e3)
        r_good = good.run_packet(snr_db=25)
        r_bad = bad.run_packet(snr_db=25)
        assert r_good.tag_ber < 0.05
        assert r_bad.tag_ber > r_good.tag_ber


class TestOversampleFactors:
    def test_values(self):
        assert WifiBackscatterSession(seed=1).oversample_factor == 1
        assert ZigbeeBackscatterSession(seed=1).oversample_factor == 4
        assert BleBackscatterSession(seed=1).oversample_factor == 8
