"""802.11 data scrambler (IEEE 802.11-2012 section 18.3.5.5).

The scrambler XORs the data with the output of the LFSR
``x^7 + x^4 + 1`` — equation (8) of the FreeRider paper:

    c[k] = b[k] ^ b[k-3] ^ b[k-7]    (feedback form: s7 ^ s4)

Because scrambling is a pure XOR stream, flipping every input bit of an
8-bit window flips the corresponding outputs — the linearity property the
paper exploits (section 3.2.1) to let a tag's repeated-bit translation
survive the whitening.  :class:`Scrambler` is self-synchronising in the
descramble direction only through knowledge of the 7-bit seed carried in
the SERVICE field.
"""

from __future__ import annotations

import numpy as np

from repro.utils.bits import BitsLike, as_bits

__all__ = ["Scrambler", "scramble", "descramble", "scrambler_sequence",
           "periodic_keystream"]


class Scrambler:
    """Stateful 127-periodic LFSR scrambler.

    Parameters
    ----------
    seed:
        Initial 7-bit state, must be non-zero (1..127).  802.11
        transmitters pick a pseudorandom nonzero seed per frame.
    """

    def __init__(self, seed: int = 0b1011101) -> None:
        if not 1 <= seed <= 127:
            raise ValueError("scrambler seed must be a non-zero 7-bit value")
        self._state = seed

    @property
    def state(self) -> int:
        """Current 7-bit LFSR state."""
        return self._state

    def next_bit(self) -> int:
        """Advance the LFSR one step and return the keystream bit."""
        s = self._state
        # x^7 + x^4 + 1: feedback is bit7 XOR bit4 (1-indexed from LSB side).
        fb = ((s >> 6) ^ (s >> 3)) & 1
        self._state = ((s << 1) | fb) & 0x7F
        return fb

    def keystream(self, n: int) -> np.ndarray:
        """Generate *n* keystream bits."""
        return np.array([self.next_bit() for _ in range(n)], dtype=np.uint8)

    def process(self, bits: BitsLike) -> np.ndarray:
        """Scramble (or descramble — the operation is an involution given
        the same starting state) a bit array."""
        arr = as_bits(bits)
        out = np.bitwise_xor(arr, periodic_keystream(self._state, arr.size))
        # The register cycles with period 127: n steps land where n mod
        # 127 do.
        for _ in range(arr.size % 127):
            self.next_bit()
        return out


def scrambler_sequence(seed: int, n: int) -> np.ndarray:
    """The raw keystream for a given seed — exposed for analysis tools."""
    return Scrambler(seed).keystream(n)


def periodic_keystream(seed: int, n: int) -> np.ndarray:
    """*n* keystream bits via the LFSR's 127-bit period.

    ``x^7 + x^4 + 1`` is primitive, so any non-zero state cycles with
    period 127; stepping the register 127 times and tiling gives the
    same bits as ``Scrambler(seed).keystream(n)`` at O(127) state
    updates instead of O(n) — the fast path for whole-frame
    descrambling.
    """
    period = Scrambler(seed).keystream(min(n, 127))
    if n <= 127:
        return period
    reps = -(-n // 127)  # ceil
    return np.tile(period, reps)[:n]


def scramble(bits: BitsLike, seed: int = 0b1011101) -> np.ndarray:
    """One-shot scramble of *bits* with *seed*."""
    return Scrambler(seed).process(bits)


def descramble(bits: BitsLike, seed: int = 0b1011101) -> np.ndarray:
    """One-shot descramble; identical operation to :func:`scramble`."""
    return Scrambler(seed).process(bits)
