"""Gray-coded subcarrier constellations of 802.11 OFDM.

BPSK, QPSK, 16-QAM, 64-QAM with the normalisation factors of IEEE
802.11-2012 Table 18-7 so all constellations have unit average power.
These are the per-subcarrier "codewords" in the paper's sense: valid
points a tag-modified symbol must still land on (Figure 2 shows how a
naive amplitude edit leaves the codebook).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.utils.bits import as_bits

__all__ = ["Constellation", "CONSTELLATIONS"]

# demodulate_soft_batch computes symbol-to-point distances for blocks of
# at most this many (symbol, point) pairs: 256 KiB of float distances.
_DEMAP_BLOCK = 1 << 15


def _gray_axis(n_bits: int) -> np.ndarray:
    """Gray-coded PAM levels for one axis: n_bits -> 2^n_bits levels."""
    n_levels = 1 << n_bits
    levels = np.arange(n_levels)
    gray = levels ^ (levels >> 1)
    # Map gray code g to amplitude: position of g in gray sequence.
    amplitude = np.empty(n_levels)
    for pos, g in enumerate(gray):
        amplitude[g] = 2 * pos - (n_levels - 1)
    return amplitude


@dataclass(frozen=True)
class Constellation:
    """A Gray-mapped QAM/PSK constellation with hard-decision demapping."""

    name: str
    bits_per_symbol: int
    points: np.ndarray  # indexed by the integer value of the bit group (MSB first)

    def modulate(self, bits) -> np.ndarray:
        """Map a bit array (length divisible by bits_per_symbol) to
        complex points."""
        arr = as_bits(bits)
        if arr.size % self.bits_per_symbol:
            raise ValueError(
                f"bit count {arr.size} not divisible by {self.bits_per_symbol}")
        groups = arr.reshape(-1, self.bits_per_symbol)
        weights = 1 << np.arange(self.bits_per_symbol - 1, -1, -1)
        idx = groups @ weights
        return self.points[idx]

    def demodulate(self, symbols: np.ndarray) -> np.ndarray:
        """Nearest-point hard decision back to bits."""
        sym = np.asarray(symbols).ravel()
        d = np.abs(sym[:, None] - self.points[None, :])
        idx = np.argmin(d, axis=1)
        n = self.bits_per_symbol
        out = np.empty((sym.size, n), dtype=np.uint8)
        for b in range(n):
            out[:, b] = (idx >> (n - 1 - b)) & 1
        return out.ravel()

    def demodulate_soft(self, symbols: np.ndarray, noise_var: float = 0.1) -> np.ndarray:
        """Max-log LLRs per bit; positive favours bit 0."""
        sym = np.asarray(symbols).ravel()
        d2 = np.abs(sym[:, None] - self.points[None, :]) ** 2  # (N, M)
        n = self.bits_per_symbol
        idx = np.arange(self.points.size)
        llrs = np.empty((sym.size, n))
        for b in range(n):
            bit_of_point = (idx >> (n - 1 - b)) & 1
            d0 = d2[:, bit_of_point == 0].min(axis=1)
            d1 = d2[:, bit_of_point == 1].min(axis=1)
            llrs[:, b] = (d1 - d0) / max(noise_var, 1e-12)
        return llrs.ravel()

    def demodulate_soft_batch(self, symbols: np.ndarray,
                              noise_vars: np.ndarray) -> np.ndarray:
        """Max-log LLRs for a (B, S) symbol stack with per-row noise.

        Returns a (B, S*bits_per_symbol) array; row *i* is bit-identical
        to ``demodulate_soft(symbols[i], noise_vars[i])`` — the distance
        computation is elementwise and the per-bit minimum reduces over
        the constellation axis, so stacking rows changes nothing.  The
        distances are computed for one block of symbols at a time, so
        the working set stays small whatever the stack size.
        """
        sym2 = np.asarray(symbols)
        if sym2.ndim != 2:
            raise ValueError("demodulate_soft_batch expects a (B, S) array")
        n_b, n_s = sym2.shape
        flat = sym2.reshape(-1)
        n = self.bits_per_symbol
        idx = np.arange(self.points.size)
        bit_of_point = [(idx >> (n - 1 - b)) & 1 for b in range(n)]
        llrs = np.empty((n_b, n_s * n))
        per_bit = llrs.reshape(flat.size, n)
        step = max(1, _DEMAP_BLOCK // self.points.size)
        for a in range(0, flat.size, step):
            seg = flat[a:a + step]
            d2 = np.abs(seg[:, None] - self.points[None, :])
            np.square(d2, out=d2)  # what ``** 2`` computes, in place
            for b, bits in enumerate(bit_of_point):
                d0 = d2[:, bits == 0].min(axis=1)
                d1 = d2[:, bits == 1].min(axis=1)
                np.subtract(d1, d0, out=per_bit[a:a + step, b])
        nv = np.maximum(np.asarray(noise_vars, dtype=float), 1e-12)
        llrs /= nv[:, None]
        return llrs

    def min_distance(self) -> float:
        """Minimum Euclidean distance between constellation points."""
        p = self.points
        d = np.abs(p[:, None] - p[None, :])
        d[d == 0] = np.inf
        return float(d.min())


def _make_bpsk() -> Constellation:
    return Constellation("BPSK", 1, np.array([-1.0 + 0j, 1.0 + 0j]))


def _make_qam(bits_per_symbol: int, name: str) -> Constellation:
    half = bits_per_symbol // 2
    axis = _gray_axis(half)
    norm = {2: 1 / np.sqrt(2), 4: 1 / np.sqrt(10), 6: 1 / np.sqrt(42)}[bits_per_symbol]
    n_points = 1 << bits_per_symbol
    points = np.empty(n_points, dtype=complex)
    for v in range(n_points):
        i_bits = v >> half
        q_bits = v & ((1 << half) - 1)
        points[v] = (axis[i_bits] + 1j * axis[q_bits]) * norm
    return Constellation(name, bits_per_symbol, points)


CONSTELLATIONS: Dict[str, Constellation] = {
    "BPSK": _make_bpsk(),
    "QPSK": _make_qam(2, "QPSK"),
    "16-QAM": _make_qam(4, "16-QAM"),
    "64-QAM": _make_qam(6, "64-QAM"),
}
