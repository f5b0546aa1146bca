"""Additive white Gaussian noise with explicit SNR accounting."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.dsp.measure import signal_power
from repro.utils.rng import make_rng

__all__ = ["awgn", "awgn_at_snr", "NoiseArena", "awgn_apply_batch",
           "snr_from_powers", "noise_for_floor"]


def awgn(signal: np.ndarray, noise_power: float,
         rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Add complex AWGN of total power *noise_power* (linear)."""
    if noise_power < 0:
        raise ValueError("noise power must be non-negative")
    gen = make_rng(rng)
    sigma = np.sqrt(noise_power / 2)
    noise = gen.normal(0, sigma, len(signal)) + 1j * gen.normal(0, sigma, len(signal))
    return signal + noise


def awgn_at_snr(signal: np.ndarray, snr_db: float,
                rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Add noise so that the output SNR (w.r.t. the input's measured
    power) equals *snr_db*."""
    p = signal_power(signal)
    noise_power = p / 10 ** (snr_db / 10)
    return awgn(signal, noise_power, rng)


class NoiseArena:
    """Preallocated rows for the noise of one flush of packets.

    A flush is the set of packets whose noise is drawn, applied and
    decoded together.  :meth:`draw` hands out rows in draw order: row
    *r* of sample length *n* holds that packet's standard-normal draws
    in ``z(n)[:, r]`` (real plane, then imaginary) and, once the channel
    has run, its post-channel waveform in ``noisy(n)[r]``.  A flush's
    packets of one length therefore sit on consecutive rows, so the
    channel and the receivers can work on ``noisy(n)[r0:r1]`` views
    instead of stacked copies.

    The caller that knows the flush size sets *rows*, the most packets
    the flush can draw noise for.  Blocks are allocated on first use,
    one per sample length, sized to the rows still free, so a flush of
    one length allocates exactly *rows* rows.  An arena is never reused:
    once every drawn row has been through the channel
    (:meth:`channelled`) the draws are freed and the arena takes no
    more rows.  A waveform view a caller keeps therefore never changes
    under it.
    """

    def __init__(self, rows: int) -> None:
        if rows < 1:
            raise ValueError("a noise arena needs at least one row")
        self.rows = int(rows)
        self.used = 0
        self._pending = 0
        self._noisy: Dict[int, np.ndarray] = {}
        self._z: Dict[int, np.ndarray] = {}
        self._next: Dict[int, int] = {}

    @staticmethod
    def row_bytes(n: int) -> int:
        """Bytes one row of sample length *n* takes: the complex
        waveform plus its two planes of standard normals."""
        return n * (np.dtype(complex).itemsize
                    + 2 * np.dtype(float).itemsize)

    @property
    def allocated(self) -> int:
        """Rows allocated so far, over all sample lengths."""
        return sum(block.shape[0] for block in self._noisy.values())

    def draw(self, gen: np.random.Generator, n: int) -> int:
        """Fill the next row of length *n* with ``2 * n`` standard
        normals and return its index.

        ``gen.standard_normal(out=row)`` makes the same calls in the
        same order as ``gen.standard_normal(n)`` twice, so the values
        and the generator state match the allocating draws exactly.
        """
        if self.used >= self.rows:
            raise RuntimeError(f"noise arena full ({self.rows} rows)")
        if n not in self._noisy:
            free = self.rows - self.used
            self._noisy[n] = np.empty((free, n), dtype=complex)
            self._z[n] = np.empty((2, free, n))
            self._next[n] = 0
        row = self._next[n]
        self._next[n] = row + 1
        self.used += 1
        self._pending += 1
        z = self._z[n]
        gen.standard_normal(out=z[0, row])
        gen.standard_normal(out=z[1, row])
        return row

    def noisy(self, n: int) -> np.ndarray:
        """The (rows, n) complex waveform block of length *n*."""
        return self._noisy[n]

    def z(self, n: int) -> np.ndarray:
        """The (2, rows, n) standard-normal block of length *n*."""
        return self._z[n]

    def channelled(self, count: int) -> None:
        """Record that *count* drawn rows went through the channel;
        after the last one the draws are freed and the arena is
        closed to further draws."""
        self._pending -= count
        if self._pending <= 0:
            self._z.clear()
            self.rows = self.used


def awgn_apply_batch(noisy: np.ndarray, sigmas: np.ndarray,
                     z: np.ndarray) -> np.ndarray:
    """Add pre-drawn noise to a (B, N) complex stack, in place.

    *z* is the (2, B, N) pair of standard-normal draws (real plane,
    then imaginary); it is scaled in place by each row's *sigma* and
    then added to ``noisy.real`` and ``noisy.imag``.  Each element goes
    through the same IEEE operations as
    ``signals + (sigma * z_re + 1j * (sigma * z_im))``, the chain of
    :func:`awgn_at_snr` (numpy's ``normal(0, sigma, n)`` is exactly
    ``sigma * standard_normal(n)``): that formula's extra terms are
    signed zeros, which leave a non-zero scaled draw unchanged.  Rows
    whose *sigma* is not a positive finite number (no noise, or a
    non-finite SNR) run the formula itself, so their signed zeros and
    NaNs match too.  Returns *noisy*.
    """
    scale = np.asarray(sigmas, dtype=float)
    fast = (scale > 0) & np.isfinite(scale)
    if fast.all():
        _add_scaled(noisy, scale, z)
        return noisy
    for k, s in enumerate(scale):
        if fast[k]:
            _add_scaled(noisy[k:k + 1], scale[k:k + 1], z[:, k:k + 1])
        else:
            noisy[k] += s * z[0, k] + 1j * (s * z[1, k])
    return noisy


def _add_scaled(noisy: np.ndarray, scale: np.ndarray,
                z: np.ndarray) -> None:
    z *= scale[None, :, None]
    noisy.real += z[0]
    noisy.imag += z[1]


def snr_from_powers(signal_dbm: float, noise_dbm: float) -> float:
    """SNR in dB from absolute powers."""
    return signal_dbm - noise_dbm


def noise_for_floor(n_samples: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Unit-power complex noise vector (scale externally)."""
    gen = make_rng(rng)
    return (gen.normal(0, np.sqrt(0.5), n_samples)
            + 1j * gen.normal(0, np.sqrt(0.5), n_samples))
