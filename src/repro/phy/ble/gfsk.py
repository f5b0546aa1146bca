"""Gaussian FSK modem: 1 Mb/s, modulation index 0.5 (deviation 250 kHz),
BT = 0.5 — the paper's CC2541 configuration.

Modulation integrates a Gaussian-filtered NRZ stream into phase;
demodulation uses a quadrature discriminator (angle of x[n]*conj(x[n-1]))
followed by per-bit integration.  A brick-ish FIR channel filter models
the receiver's 1 MHz channel selectivity — the mechanism that discards
the tag's undesired mirror sideband (paper equation 10 / Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dsp.filters import gaussian_taps
from repro.utils.bits import as_bits

__all__ = ["GfskModem", "BIT_RATE_HZ"]

BIT_RATE_HZ = 1e6


@dataclass
class GfskModem:
    """GFSK modulator/demodulator at *sps* samples per bit."""

    sps: int = 8
    bt: float = 0.5
    modulation_index: float = 0.5
    _taps: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._taps is None:
            self._taps = gaussian_taps(self.bt, self.sps, span=4)
        # Per-(bandwidth, length) channel-filter spectra; see
        # channel_filter_batch.
        self._fir_cache = {}

    @property
    def sample_rate_hz(self) -> float:
        return BIT_RATE_HZ * self.sps

    @property
    def deviation_hz(self) -> float:
        """Peak frequency deviation: h * Rb / 2 = 250 kHz at h=0.5."""
        return self.modulation_index * BIT_RATE_HZ / 2

    def modulate(self, bits) -> np.ndarray:
        """Bits -> unit-envelope complex baseband."""
        arr = as_bits(bits)
        nrz = np.repeat(2.0 * arr.astype(float) - 1.0, self.sps)
        shaped = np.convolve(nrz, self._taps, mode="same")
        # Phase step per sample for +/-1 input: 2*pi*fd/fs.
        dphi = 2 * np.pi * self.deviation_hz / self.sample_rate_hz
        phase = np.cumsum(shaped) * dphi
        return np.exp(1j * phase)

    def filter_taps(self, bandwidth_hz: float = 1e6) -> np.ndarray:
        """Windowed-sinc low-pass taps at +/- bandwidth/2."""
        fs = self.sample_rate_hz
        cutoff = bandwidth_hz / 2 / fs  # normalised
        n_taps = 8 * self.sps + 1
        n = np.arange(n_taps) - n_taps // 2
        h = 2 * cutoff * np.sinc(2 * cutoff * n) * np.hamming(n_taps)
        h /= h.sum()
        return h

    def channel_filter(self, waveform: np.ndarray,
                       bandwidth_hz: float = 1e6) -> np.ndarray:
        """Windowed-sinc low-pass at +/- bandwidth/2 (channel selectivity).

        One shared FFT kernel serves this and :meth:`channel_filter_batch`
        — a single row is filtered as a (1, N) stack — so the scalar and
        batched receive chains are bit-identical by construction.
        """
        return self.channel_filter_batch(
            np.asarray(waveform)[None, :], bandwidth_hz)[0]

    def channel_filter_batch(self, waveforms: np.ndarray,
                             bandwidth_hz: float = 1e6) -> np.ndarray:
        """Row-wise :meth:`channel_filter` of a (B, N) stack.

        The linear convolution runs as one zero-padded FFT product over
        the whole stack.  ``numpy.fft`` transforms each row of a 2-D
        array with the same 1-D plan, and the spectral product is
        elementwise, so the result is bit-identical for any stacking of
        the same rows — the property the batch contract needs (and the
        reason this replaced a per-row ``np.convolve``, whose BLAS dot
        kernel rounds differently from any vectorised re-summation).
        """
        wav = np.asarray(waveforms)
        if wav.ndim != 2:
            raise ValueError("channel_filter_batch expects a (B, N) array")
        n = wav.shape[1]
        key = (float(bandwidth_hz), n)
        cached = self._fir_cache.get(key)
        if cached is None:
            h = self.filter_taps(bandwidth_hz)
            m = n + h.size - 1
            cached = (np.fft.fft(h, m), h.size, m)
            self._fir_cache[key] = cached
        spectrum, n_taps, m = cached
        product = np.fft.fft(wav, m, axis=-1)
        product *= spectrum
        full = np.fft.ifft(product, axis=-1)
        lo = (n_taps - 1) // 2  # np.convolve mode="same" central slice
        return full[..., lo:lo + n]

    def discriminate(self, waveform: np.ndarray) -> np.ndarray:
        """Instantaneous frequency estimate per sample (radians/sample)."""
        wav = np.asarray(waveform)
        prod = wav[1:] * np.conj(wav[:-1])
        return np.concatenate([[0.0], np.angle(prod)])

    def demodulate_soft(self, waveform: np.ndarray, n_bits: int) -> np.ndarray:
        """Per-bit soft metrics: mean discriminator output over the middle
        half of each bit period (positive favours bit 1)."""
        freq = self.discriminate(waveform)
        needed = n_bits * self.sps
        if freq.size < needed:
            freq = np.concatenate([freq, np.zeros(needed - freq.size)])
        lo = self.sps // 4
        hi = self.sps - lo
        blocks = freq[:needed].reshape(n_bits, self.sps)
        return blocks[:, lo:hi].mean(axis=1)

    def demodulate(self, waveform: np.ndarray, n_bits: int) -> np.ndarray:
        """Hard bit decisions from the discriminator."""
        return (self.demodulate_soft(waveform, n_bits) > 0).astype(np.uint8)

    def discriminate_batch(self, waveforms: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`discriminate` of a (B, N) stack (the delay
        product and angle are elementwise, so stacking is exact)."""
        wav = np.asarray(waveforms)
        if wav.ndim != 2:
            raise ValueError("discriminate_batch expects a (B, N) array")
        prod = np.conj(wav[:, :-1])
        np.multiply(wav[:, 1:], prod, out=prod)
        freq = np.empty(wav.shape)
        freq[:, :1] = 0.0
        # np.angle is exactly arctan2(imag, real); write it in place.
        np.arctan2(prod.imag, prod.real, out=freq[:, 1:])
        return freq

    def demodulate_soft_batch(self, waveforms: np.ndarray,
                              n_bits: int) -> np.ndarray:
        """Per-bit soft metrics for a (B, N) stack; returns (B, n_bits),
        bit-identical to :meth:`demodulate_soft` per row (the per-bit
        integration is a row-wise mean)."""
        freq = self.discriminate_batch(waveforms)
        needed = n_bits * self.sps
        n_b = freq.shape[0]
        if freq.shape[1] < needed:
            freq = np.concatenate(
                [freq, np.zeros((n_b, needed - freq.shape[1]))], axis=1)
        lo = self.sps // 4
        hi = self.sps - lo
        blocks = freq[:, :needed].reshape(n_b * n_bits, self.sps)
        return blocks[:, lo:hi].mean(axis=1).reshape(n_b, n_bits)

    def demodulate_batch(self, waveforms: np.ndarray,
                         n_bits: int) -> np.ndarray:
        """Hard bit decisions for a (B, N) stack."""
        return (self.demodulate_soft_batch(waveforms, n_bits) > 0) \
            .astype(np.uint8)
