"""BLE data whitening (Bluetooth Core spec Vol 6 Part B section 3.2).

7-bit LFSR with polynomial x^7 + x^4 + 1, seeded with the channel index
(bit 6 forced to 1).  Like the 802.11 scrambler this is a linear XOR
stream, so complementing a window of input bits complements the outputs
— the property codeword translation relies on.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from repro.utils.bits import as_bits

__all__ = ["Whitener", "whiten", "dewhiten"]

# x^7 + x^4 + 1 is primitive, so every non-zero register state recurs
# after exactly 127 steps.
PERIOD = 127


class Whitener:
    """Stateful BLE whitening LFSR.

    Parameters
    ----------
    channel:
        RF channel index 0..39 used as the seed (bit 6 set to 1 per the
        spec, so the register is never zero).
    """

    def __init__(self, channel: int = 37):
        if not 0 <= channel <= 39:
            raise ValueError("BLE channel index must be 0..39")
        self._state = 0x40 | channel

    @property
    def state(self) -> int:
        return self._state

    def next_bit(self) -> int:
        """Advance one position; output is register bit 6 (x^7 tap)."""
        self._state, out = _step(self._state)
        return out

    def keystream(self, n: int) -> np.ndarray:
        """The next *n* keystream bits; the register advances *n* steps.

        Tiles one 127-bit period of the register's output and lands on
        the state ``n mod 127`` steps on, so a whole packet costs no
        per-bit Python — the same bits and final state as *n*
        :meth:`next_bit` calls.
        """
        bits, states = _cycle(self._state)
        self._state = states[n % PERIOD]
        return np.resize(bits, n)

    def process(self, bits) -> np.ndarray:
        """Whiten (or de-whiten — XOR is an involution) a bit array."""
        arr = as_bits(bits)
        return np.bitwise_xor(arr, self.keystream(arr.size))


def _step(state: int) -> Tuple[int, int]:
    """One register step: (next state, output bit)."""
    out = (state >> 6) & 1
    state = (state << 1) & 0x7F
    if out:
        state ^= 0x11  # feed back into positions 0 and 4
    return state, out


@functools.lru_cache(maxsize=PERIOD)
def _cycle(state: int) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """One period from *state*: the 127 output bits (read-only) and the
    state after k steps for k = 0..126."""
    bits = np.empty(PERIOD, dtype=np.uint8)
    states = []
    for k in range(PERIOD):
        states.append(state)
        state, bits[k] = _step(state)
    bits.flags.writeable = False
    return bits, tuple(states)


def whiten(bits, channel: int = 37) -> np.ndarray:
    """One-shot whitening of *bits* for *channel*."""
    return Whitener(channel).process(bits)


def dewhiten(bits, channel: int = 37) -> np.ndarray:
    """Inverse of :func:`whiten` (same operation)."""
    return Whitener(channel).process(bits)
