"""OFDM symbol modulation for 20 MHz 802.11g/n.

64-point IFFT, 48 data subcarriers, 4 pilot subcarriers (+/-7, +/-21),
16-sample cyclic prefix — equation (3) of the paper.  The pilot polarity
sequence follows 802.11-2012 section 18.3.5.10.  The receiver half also
supplies per-symbol phase estimates (which a commodity chip may or may
not apply; Broadcom BCM43xx reportedly does not, which is why FreeRider's
phase-shift translation survives — paper section 3.2.1 last paragraph).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

__all__ = ["OfdmModulator", "DATA_SUBCARRIERS", "PILOT_SUBCARRIERS",
           "N_FFT", "N_CP", "PILOT_POLARITY"]

N_FFT = 64
N_CP = 16
SYMBOL_SAMPLES = N_FFT + N_CP

PILOT_SUBCARRIERS = (-21, -7, 7, 21)
# Data occupy -26..26 excluding 0 and the pilots.
DATA_SUBCARRIERS = tuple(
    k for k in range(-26, 27) if k != 0 and k not in PILOT_SUBCARRIERS
)

# 127-periodic pilot polarity sequence p_n (802.11-2012 eq. 18-25),
# generated by the same x^7+x^4+1 LFSR seeded with all ones.
def _pilot_polarity() -> np.ndarray:
    state = 0x7F
    seq = np.empty(127, dtype=np.int8)
    for i in range(127):
        fb = ((state >> 6) ^ (state >> 3)) & 1
        state = ((state << 1) | fb) & 0x7F
        seq[i] = 1 - 2 * fb  # bit 1 -> -1, bit 0 -> +1
    return seq


PILOT_POLARITY = _pilot_polarity()


@dataclass
class OfdmModulator:
    """Modulate data-subcarrier symbol vectors to time-domain samples and
    back.

    The object is stateless aside from its static subcarrier plan; the
    symbol index (for pilot polarity) is passed explicitly so a receiver
    can resynchronise.
    """

    n_fft: int = N_FFT
    n_cp: int = N_CP

    @property
    def samples_per_symbol(self) -> int:
        return self.n_fft + self.n_cp

    def modulate_symbol(self, data_symbols: np.ndarray, symbol_index: int) -> np.ndarray:
        """One OFDM symbol: IFFT of the subcarrier grid plus cyclic prefix.

        *symbol_index* counts DATA symbols starting at 1 (index 0 is the
        SIGNAL symbol), selecting the pilot polarity.
        """
        return self.modulate(np.asarray(data_symbols).reshape(1, -1),
                             first_index=symbol_index)

    def modulate(self, symbol_matrix: np.ndarray, first_index: int = 0) -> np.ndarray:
        """Modulate a (n_symbols, 48) matrix into a contiguous waveform.

        Row i is symbol ``first_index + i``.  All rows share one
        (n_symbols, 64) subcarrier grid and one IFFT along its last
        axis, which is bit-identical to transforming the rows one by one.
        """
        mat = np.atleast_2d(symbol_matrix)
        if mat.shape[1] != len(DATA_SUBCARRIERS):
            raise ValueError(
                f"expected {len(DATA_SUBCARRIERS)} data symbols, "
                f"got {mat.shape[1]}")
        n_sym = mat.shape[0]
        grid = np.zeros((n_sym, self.n_fft), dtype=complex)
        grid[:, [k % self.n_fft for k in DATA_SUBCARRIERS]] = mat
        polarity = PILOT_POLARITY[(first_index + np.arange(n_sym)) % 127]
        pilots = np.array((1, 1, 1, -1))  # base values on -21,-7,7,21
        grid[:, [k % self.n_fft for k in PILOT_SUBCARRIERS]] = \
            pilots[None, :] * polarity[:, None]
        time = np.fft.ifft(grid, axis=-1) * np.sqrt(self.n_fft)
        return np.concatenate([time[:, -self.n_cp:], time], axis=1).ravel()

    def demodulate_symbol(self, samples: np.ndarray, symbol_index: int,
                          pilot_correction: bool = False) -> Tuple[np.ndarray, complex]:
        """Recover the 48 data-subcarrier values of one OFDM symbol.

        Returns ``(data_symbols, pilot_phasor)`` where *pilot_phasor* is
        the average received-pilot rotation.  When *pilot_correction* is
        True the rotation is removed from the data symbols — emulating a
        receiver that uses pilots for phase tracking (and which would
        therefore erase FreeRider's phase modulation).
        """
        if samples.size != self.samples_per_symbol:
            raise ValueError("wrong sample count for one OFDM symbol")
        grid = np.fft.fft(samples[self.n_cp:]) / np.sqrt(self.n_fft)
        polarity = PILOT_POLARITY[symbol_index % 127]
        ref = np.array((1, 1, 1, -1)) * polarity
        rx_pilots = np.array([grid[k % self.n_fft] for k in PILOT_SUBCARRIERS])
        phasor = complex(np.sum(rx_pilots * np.conj(ref)))
        if phasor != 0:
            phasor /= abs(phasor)
        else:
            phasor = 1.0 + 0j
        data = np.array([grid[k % self.n_fft] for k in DATA_SUBCARRIERS])
        if pilot_correction:
            data = data * np.conj(phasor)
        return data, phasor

    def demodulate(self, waveform: np.ndarray, n_symbols: int,
                   first_index: int = 0,
                   pilot_correction: bool = False) -> Tuple[np.ndarray, List[complex]]:
        """Demodulate *n_symbols* back to a (n_symbols, 48) matrix."""
        sps = self.samples_per_symbol
        if waveform.size < n_symbols * sps:
            raise ValueError("waveform shorter than requested symbol count")
        out = np.empty((n_symbols, len(DATA_SUBCARRIERS)), dtype=complex)
        phasors: List[complex] = []
        for i in range(n_symbols):
            chunk = waveform[i * sps:(i + 1) * sps]
            out[i], ph = self.demodulate_symbol(chunk, first_index + i,
                                                pilot_correction)
            phasors.append(ph)
        return out, phasors

    def demodulate_batch(self, waveforms: np.ndarray, n_symbols: int,
                         first_index: int = 0,
                         pilot_correction: bool = False
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """Demodulate a (B, >= n_symbols*sps) stack of waveforms at once.

        Returns ``(data, phasors)`` with shapes (B, n_symbols, 48) and
        (B, n_symbols).  All frames share the symbol indexing (same
        *first_index*), so the CP strip, FFT and subcarrier gather run
        as single array operations; ``np.fft.fft`` over the last axis is
        bit-identical to the per-symbol FFTs of :meth:`demodulate`.
        """
        wav = np.asarray(waveforms)
        if wav.ndim != 2:
            raise ValueError("demodulate_batch expects a (B, N) array")
        sps = self.samples_per_symbol
        if wav.shape[1] < n_symbols * sps:
            raise ValueError("waveform shorter than requested symbol count")
        n_b = wav.shape[0]
        blocks = wav[:, : n_symbols * sps].reshape(n_b, n_symbols, sps)
        grid = np.fft.fft(blocks[:, :, self.n_cp:], axis=-1) \
            / np.sqrt(self.n_fft)
        data_idx = np.array([k % self.n_fft for k in DATA_SUBCARRIERS])
        pilot_idx = np.array([k % self.n_fft for k in PILOT_SUBCARRIERS])
        data = grid[:, :, data_idx]

        polarity = PILOT_POLARITY[
            (first_index + np.arange(n_symbols)) % 127]
        ref = np.array((1, 1, 1, -1))[None, :] \
            * polarity[:, None].astype(float)  # (n_symbols, 4)
        rx_pilots = grid[:, :, pilot_idx]
        raw = np.sum(rx_pilots * np.conj(ref)[None, :, :], axis=-1)
        # Normalise with Python complex arithmetic: the scalar path's
        # ``phasor /= abs(phasor)`` rounds differently from numpy's
        # vectorised complex division (1-ulp), and exactness matters.
        phasors = np.empty_like(raw)
        flat_in, flat_out = raw.ravel(), phasors.ravel()
        for i in range(flat_in.size):
            p = complex(flat_in[i])
            flat_out[i] = p / abs(p) if p != 0 else 1.0 + 0j
        if pilot_correction:
            data = data * np.conj(phasors)[:, :, None]
        return data, phasors
